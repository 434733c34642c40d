"""Sequence-generated arithmetics: products, divisors, primes, squares, cubes."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from karith import (
    AlternatingOnes,
    ArithProg,
    Constant,
    DomainError,
    Explicit,
    FurstPattern,
    GeomProg,
    NotDivisible,
    Polynomial,
    PrefixExhaustedError,
    UsualPrimes,
    ZeroOne,
    cubes_sequence,
    exact_divisor_count_numbers,
    k_divisors,
    k_primes_below,
    k_product,
    k_quotient,
    nth_prime,
    parse_generator,
    seq_divisors,
    seq_is_prime,
    seq_primes_below,
    seq_product,
    seq_quotient,
    squares_sequence,
)

ALL_GENERATORS = [
    Constant(3),
    ArithProg(1, 2),
    GeomProg(1, 2),
    Polynomial((1, 0, 5)),
    UsualPrimes(),
    Explicit(tuple(range(1, 600))),
    AlternatingOnes(),
    ZeroOne(),
    FurstPattern(),
]


class TestGenerators:
    def test_terms(self):
        assert [ArithProg(3, 4).term(i) for i in range(1, 5)] == [3, 7, 11, 15]
        assert [GeomProg(1, 3).term(i) for i in range(1, 6)] == [1, 3, 9, 27, 81]
        assert [Polynomial((1, 0, 5)).term(i) for i in range(1, 4)] == [1, 6, 21]
        assert [UsualPrimes().term(i) for i in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert [AlternatingOnes().term(i) for i in range(1, 7)] == [1, -1, 1, -1, 1, -1]
        assert [ZeroOne().term(i) for i in range(1, 7)] == [0, 1, 0, 1, 0, 1]

    def test_fpattern_blocks(self):
        expected = [1, -1, 0, 1, -1, 0, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 1, -1]
        assert [FurstPattern().term(i) for i in range(1, 20)] == expected

    def test_explicit_prefix_errors_past_end(self):
        g = Explicit((4, 5, 6))
        assert g.term(3) == 6
        with pytest.raises(PrefixExhaustedError):
            g.term(4)

    def test_nth_prime_grows(self):
        assert nth_prime(25) == 97

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_prefix_sum_recurrence(self, g):
        sums = g.prefix_sums()
        for n in range(1, 501):
            plain = sum(g.term(i) for i in range(1, n + 1))
            assert sums.weighted(n + 1) - sums.weighted(n) == plain

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_weighted_matches_the_memo(self, g):
        # closed formulas and memo reads answer W alike wherever both exist
        assert [g.weighted(n) for n in range(1, 151)] == [
            g.prefix_sums().weighted(n) for n in range(1, 151)
        ]

    @pytest.mark.parametrize("g", [Constant(-4), Constant(3), ArithProg(2, 5), ArithProg(-3, -2),
                                   Polynomial((1, 0, 5)), Polynomial((7,)), Polynomial((2, 3))],
                             ids=lambda g: g.spec())
    def test_weighted_below_1_follows_the_recurrence(self, g):
        # W(n + 1) - W(n) = S(n) and S(n) - S(n - 1) = a_n hold for every
        # integer n once a_n is the closed term formula: step down from W(1)
        w, plain = 0, 0  # W(1), S(0)
        for n in range(0, -61, -1):
            w -= plain  # W(n) = W(n + 1) - S(n)
            assert g.weighted(n) == w, n
            plain -= g.term(n)  # S(n - 1) = S(n) - a_n

    def test_closed_forms_build_no_memo(self):
        g = ArithProg(1, 2)
        assert seq_product(3, 10**6, g) == 333331833337500000
        assert "_sums" not in g.__dict__
        g = Constant(3)
        assert seq_quotient(7, 10**6, g) == k_quotient(7, 10**6, 3)
        assert "_sums" not in g.__dict__

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_bulk_read_matches_single_reads(self, g):
        bulk = g.prefix_sums().weighted_upto(300)
        assert bulk[1:] == [g.prefix_sums().weighted(n) for n in range(1, 301)]
        assert g.prefix_sums().weighted_upto(0) == [0]

    def test_bulk_read_fails_like_single_reads(self):
        with pytest.raises(PrefixExhaustedError) as single:
            Explicit((1, 2)).prefix_sums().weighted(9)
        with pytest.raises(PrefixExhaustedError) as bulk:
            Explicit((1, 2)).prefix_sums().weighted_upto(9)
        assert str(bulk.value) == str(single.value)
        with pytest.raises(DomainError):
            Constant(3).prefix_sums().weighted_upto(-1)

    def test_generators_are_immutable(self):
        # a mutable generator would keep serving its old prefix-sum memo
        g = Constant(3)
        assert seq_product(4, 3, g) == 15
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.k = 5
        assert seq_product(4, 3, Constant(5)) == 21
        for g in (ArithProg(1, 2), GeomProg(1, 2), Polynomial((1, 0, 5)),
                  Explicit((1, 2))):
            field = dataclasses.fields(g)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, field, 0)

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_equal_generators_hash_equal(self, g):
        twin = parse_generator(g.spec())
        twin.prefix_sums().weighted(20)  # a warm memo changes neither
        assert twin == g and hash(twin) == hash(g)
        assert len({g, twin}) == 1

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_warm_generators_pickle_and_copy(self, g):
        # the memo holds a lock, which neither pickle nor deepcopy can take
        seq_product(3, 4, g)
        twin = pickle.loads(pickle.dumps(g))
        assert twin == g and hash(twin) == hash(g)
        assert copy.deepcopy(g) == g
        assert copy.copy(g).prefix_sums() is not g.prefix_sums()
        assert twin.prefix_sums().weighted_upto(30) == g.prefix_sums().weighted_upto(30)

    def test_spec_roundtrip(self):
        for g in ALL_GENERATORS:
            assert parse_generator(g.spec()) == g

    def test_parse_rejects_junk(self):
        for bad in ("nope", "ap:1", "const:x", "poly:", "explicit:1,2"):
            with pytest.raises(DomainError):
                parse_generator(bad)


class TestSeqProduct:
    def test_known_value(self):
        assert seq_product(5, 8, ArithProg(3, 4)) == 292

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_single_term(self, g):
        for m in (-7, 0, 13):
            assert seq_product(m, 1, g) == m

    def test_constant_reduces_to_k_product(self):
        # seq_product answers constants by formula; the prefix sums are the
        # literal route it must agree with
        for k in range(-10, 11):
            g = Constant(k)
            for m in range(-20, 21, 3):
                for n in range(1, 30):
                    literal = (m - n + 1) * n + g.prefix_sums().weighted(n)
                    assert seq_product(m, n, g) == k_product(m, n, k) == literal

    def test_closed_form_matches_weighted_sum(self):
        # arithmetic progressions: seq_product answers by the cubic formula,
        # which must agree with the written-out formula and the literal sums
        for a in range(-5, 6):
            for b in range(-5, 6):
                g = ArithProg(a, b)
                for n in range(1, 61):
                    closed = (
                        (0 - n + 1) * n
                        + (n * (n - 1) // 2) * a
                        + (n * (n - 1) * (n - 2) // 6) * b
                    )
                    literal = (0 - n + 1) * n + g.prefix_sums().weighted(n)
                    assert seq_product(0, n, g) == closed == literal

    def test_negative_counts_via_closed_forms(self):
        for n in range(-20, 1):
            assert seq_product(4, n, Constant(3)) == k_product(4, n, 3)
        g = ArithProg(2, 5)
        for m in (-3, 0, 8):
            for n in range(-15, 1):
                expected = (
                    (m - n + 1) * n
                    + (n * (n - 1) // 2) * 2
                    + (n * (n - 1) * (n - 2) // 6) * 5
                )
                assert seq_product(m, n, g) == expected

    def test_polynomial_negative_counts_interpolate(self):
        # quadratic generator: W is a degree-4 polynomial; check the Newton
        # extension against an explicit sum evaluated through p(x) directly
        g = Polynomial((1, 0, 5))

        def w_direct(n):
            # W(n) = sum_{i=1}^{n-1} (n - i) p(i - 1), valid polynomial identity
            return sum((n - i) * (1 + 5 * (i - 1) ** 2) for i in range(1, n))

        # fit check on positive side first
        for n in range(1, 30):
            assert seq_product(0, n, g) == (0 - n + 1) * n + w_direct(n)
        # negative side equals the unique polynomial continuation, sampled via
        # Lagrange evaluation over rationals
        from fractions import Fraction

        samples = [(n, w_direct(n)) for n in range(1, 7)]

        def lagrange(x):
            total = Fraction(0)
            for i, (xi, yi) in enumerate(samples):
                term = Fraction(yi)
                for j, (xj, _) in enumerate(samples):
                    if i != j:
                        term *= Fraction(x - xj, xi - xj)
                total += term
            assert total.denominator == 1
            return total.numerator

        for n in range(-10, 1):
            assert seq_product(0, n, g) == (0 - n + 1) * n + lagrange(n)

    def test_non_closed_form_rejects_negative_counts(self):
        for g in (GeomProg(1, 2), UsualPrimes(), AlternatingOnes(), ZeroOne(), FurstPattern()):
            with pytest.raises(DomainError):
                seq_product(3, 0, g)

    def test_explicit_prefix_exhaustion_propagates(self):
        with pytest.raises(PrefixExhaustedError):
            seq_product(5, 4, Explicit((1, 2)))
        with pytest.raises(PrefixExhaustedError):
            seq_divisors(4, Explicit((1, 2, 3)), search_bound=10)

    def test_concurrent_use_of_one_generator_is_deterministic(self):
        import threading

        g = ArithProg(3, 4)
        serial = [seq_product(m, n, ArithProg(3, 4))
                  for m in range(-10, 11) for n in range(1, 120)]
        results = [None] * 8

        def worker(slot):
            results[slot] = [seq_product(m, n, g)
                             for m in range(-10, 11) for n in range(1, 120)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == serial for r in results)


class TestSeqQuotient:
    def test_known_value(self):
        assert seq_quotient(292, 8, ArithProg(3, 4)) == 5

    def test_single_term(self):
        for g in ALL_GENERATORS:
            assert seq_quotient(-11, 1, g) == -11

    def test_constant_reduction(self):
        assert seq_quotient(81, 6, Constant(3)) == 11 == k_quotient(81, 6, 3)

    def test_inexact_carries_rational(self):
        result = seq_quotient(40, 6, Constant(3))
        assert isinstance(result, NotDivisible)

    def test_domain(self):
        with pytest.raises(DomainError):
            seq_quotient(10, 0, ArithProg(1, 2))

    def test_negative_term_counts_invert_the_product(self):
        for g in (Constant(3), ArithProg(1, 2), Polynomial((1, 0, 5))):
            for b in range(-9, 0):
                for c in range(-12, 13, 4):
                    a = seq_product(c, b, g)
                    assert seq_quotient(a, b, g) == c, (g.spec(), b, c)
                    assert seq_product(seq_quotient(a, b, g), b, g) == a
        for g in (GeomProg(1, 2), UsualPrimes(), Explicit((1, 2, 3))):
            for b in range(-9, 0):
                with pytest.raises(DomainError):
                    seq_quotient(10, b, g)

    @given(
        a=st.integers(min_value=-300, max_value=300),
        b=st.integers(min_value=1, max_value=40),
    )
    def test_roundtrip_when_exact(self, a, b):
        g = ArithProg(1, 2)
        c = seq_quotient(a, b, g)
        if isinstance(c, int):
            assert seq_product(c, b, g) == a

    def test_roundtrip_across_generator_variants(self):
        for g in (GeomProg(2, 3), UsualPrimes(), AlternatingOnes(), ZeroOne(),
                  FurstPattern(), Polynomial((1, 0, 5))):
            for a in range(-60, 61, 7):
                for b in range(1, 25):
                    c = seq_quotient(a, b, g)
                    if isinstance(c, int):
                        assert seq_product(c, b, g) == a, (g.spec(), a, b)


class TestSeqDivisors:
    def test_known_report(self):
        report = seq_divisors(20, ArithProg(1, 2), 120)
        assert report.divisors == (1, 3, 5, 8, 40, 120)
        assert report.search_bound == 120

    def test_default_bound_for_progressions(self):
        report = seq_divisors(20, ArithProg(1, 2))
        assert report.search_bound == 120
        assert report.divisors == (1, 3, 5, 8, 40, 120)

    def test_usual_prime_under_constant_two(self):
        for p in (2, 13, 97):
            assert seq_divisors(p, Constant(2), 2 * p).divisors == (1, p)

    def test_brute_force_scan_agreement(self):
        g = ArithProg(1, 3)
        report = seq_divisors(12, g, 72)
        brute = [d for d in range(1, 73) if isinstance(seq_quotient(12, d, g), int)]
        assert list(report.divisors) == brute

    def test_witnesses_reproduce_subject(self):
        g = ArithProg(1, 2)
        for d, c in seq_divisors(20, g).witnesses:
            assert seq_product(c, d, g) == 20

    def test_missing_bound_for_non_progression(self):
        with pytest.raises(DomainError):
            seq_divisors(20, GeomProg(1, 2))

    def test_domain(self):
        with pytest.raises(DomainError):
            seq_divisors(0, ArithProg(1, 2))
        with pytest.raises(DomainError):
            seq_divisors(5, ArithProg(1, 2), 0)

    def test_constant_generator_matches_karith(self):
        for k in range(-6, 7):
            for a in range(1, 40):
                fast = k_divisors(a, k).divisors
                scanned = seq_divisors(a, Constant(k), 6 * a).divisors
                assert fast == scanned, (a, k)


PRIME_CASES = [
    (ArithProg(1, 3), 100, [2, 4, 8, 16, 32, 64]),
    (ArithProg(1, 1), 100, [2, 6, 8, 18, 24, 32, 54, 72, 96]),
    (ArithProg(1, 2), 100, []),
    (ArithProg(2, 1), 100, [3, 9, 27, 81]),
    (ArithProg(2, 2), 100,
     [7, 13, 19, 21, 31, 37, 39, 43, 57, 61, 63, 67, 73, 79, 93, 97]),
]


class TestSeqPrimes:
    @pytest.mark.parametrize("g,limit,expected", PRIME_CASES, ids=lambda v: str(v))
    def test_progression_census(self, g, limit, expected):
        assert seq_primes_below(limit, g) == expected

    def test_even_start_multiple_of_three_step_gives_usual_primes(self):
        assert seq_primes_below(85, ArithProg(2, 3)) == k_primes_below(85, 2)

    def test_constant_four_reduces_to_usual_primes(self):
        assert seq_primes_below(85, Constant(4)) == k_primes_below(85, 2)

    def test_quadratic_generator_census(self):
        primes = seq_primes_below(400, Polynomial((1, 0, 5)), bound_factor=6)
        assert primes == [2, 4, 6, 12, 18, 36, 54, 108, 162, 324]

    def test_is_prime_edge_cases(self):
        assert not seq_is_prime(1, ArithProg(1, 1))
        assert seq_is_prime(2, ArithProg(1, 1))
        assert not seq_is_prime(17, ArithProg(1, 2))

    def test_missing_bound_factor(self):
        with pytest.raises(DomainError):
            seq_primes_below(50, GeomProg(1, 2))


class TestExactDivisorCounts:
    def test_three_divisor_numbers(self):
        expected = [3, 4, 9, 12, 16, 27, 36, 48, 64, 81, 108, 144, 192, 243]
        assert exact_divisor_count_numbers(3, 250, ArithProg(1, 2)) == expected
        # the same set, described multiplicatively: 3**i * 4**j > 1
        closure = sorted(
            3**i * 4**j
            for i in range(6)
            for j in range(4)
            if 1 < 3**i * 4**j < 250
        )
        assert expected == closure

    def test_two_divisors_means_usual_prime(self):
        assert exact_divisor_count_numbers(2, 85, Constant(2)) == k_primes_below(85, 2)

    def test_four_divisor_numbers_usual(self):
        expected = [
            n for n in range(2, 50)
            if len(k_divisors(n, 2).divisors) == 4
        ]
        assert exact_divisor_count_numbers(4, 50, Constant(2)) == expected
        assert expected == [6, 8, 10, 14, 15, 21, 22, 26, 27, 33, 34, 35, 38, 39, 46]

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_divisor_count_numbers(0, 50, ArithProg(1, 2))
        with pytest.raises(DomainError):
            exact_divisor_count_numbers(3, 1, ArithProg(1, 2))


def _oracle_weighted(g):
    """W(1), W(2), ... straight from the terms, reading term d for W(d + 1)."""
    w, plain = 0, 0
    for i in itertools.count(1):
        yield w
        plain += g.term(i)
        w += plain


def _oracle_divisor_count(a, g, bound, cap):
    """Per-subject scan of term counts 1..bound, stopping past cap divisors."""
    count = 0
    for d, w in zip(range(1, bound + 1), _oracle_weighted(g)):
        if (a - w) % d == 0:
            count += 1
            if count > cap:
                break
    return count


def _oracle_divisors(a, g, bound):
    return tuple(
        (d, (a - w) // d + d - 1)
        for d, w in zip(range(1, bound + 1), _oracle_weighted(g))
        if (a - w) % d == 0
    )


def _oracle_census(count, limit, g, factor):
    return [n for n in range(2, limit)
            if _oracle_divisor_count(n, g, factor * n, count) == count]


def _outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


ORACLE_GENERATORS = [
    ArithProg(1, 2), ArithProg(2, 1), ArithProg(-3, 5), Polynomial((0, 3)),
    Polynomial((1, 0, 1)), GeomProg(1, 2), GeomProg(-2, 3), AlternatingOnes(),
    ZeroOne(), FurstPattern(), UsualPrimes(),
]
SHORT_PREFIXES = [
    Explicit(terms)
    for length in range(4)
    for terms in itertools.product((-1, 0, 1, 2), repeat=length)
] + [Explicit((3, -2, 0, 5, 1, -4)), Explicit(tuple(range(1, 16)))]


class TestScansAgainstPerSubjectOracle:
    """The bulk read and the inverted sieve against the per-subject scan."""

    def test_short_prefix_that_the_capped_scan_never_exhausts(self):
        # n = 3 has two divisors by d = 2, so its capped scan stops before
        # reading past the single term
        assert exact_divisor_count_numbers(1, 4, Explicit((-1,)), 1) == [2]

    @pytest.mark.parametrize("g", ORACLE_GENERATORS, ids=lambda g: g.spec())
    def test_infinite_generators(self, g):
        for factor in (1, 2, 6):
            for count in (1, 2, 3, 4):
                assert exact_divisor_count_numbers(count, 60, g, factor) \
                    == _oracle_census(count, 60, g, factor), (count, factor)
            assert seq_primes_below(60, g, factor) == _oracle_census(2, 60, g, factor)
        for a in range(1, 40):
            report = seq_divisors(a, g, 6 * a)
            assert report.witnesses == _oracle_divisors(a, g, 6 * a), a
            assert report.divisors == tuple(d for d, _ in report.witnesses)

    def test_short_explicit_prefixes(self):
        for g in SHORT_PREFIXES:
            for factor in (1, 2, 6):
                for limit in range(2, 9):
                    for count in (1, 2, 3, 4):
                        got = _outcome(exact_divisor_count_numbers, count, limit, g, factor)
                        want = _outcome(_oracle_census, count, limit, g, factor)
                        assert got == want, (g.spec(), count, limit, factor)
                    got = _outcome(seq_primes_below, limit, g, factor)
                    assert got == _outcome(_oracle_census, 2, limit, g, factor)
            for a in range(1, 8):
                for bound in range(1, 9):
                    got = _outcome(lambda: seq_divisors(a, g, bound).witnesses)
                    assert got == _outcome(_oracle_divisors, a, g, bound)
                    got = _outcome(seq_is_prime, a, g, bound)
                    want = _outcome(lambda: a > 1 and _oracle_divisor_count(a, g, bound, 2) == 2)
                    assert got == want, (g.spec(), a, bound)

    def test_concurrent_bulk_reads_of_one_memo(self):
        import sys
        import threading

        want = [_oracle_census(3, 40 + 10 * i, ZeroOne(), 2) for i in range(6)]
        g = ZeroOne()  # one cold memo grown by every thread at once
        results = [None] * 6

        def worker(slot):
            results[slot] = exact_divisor_count_numbers(3, 40 + 10 * slot, g, 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == want

    def test_primes_below_small_limits_still_check_the_factor(self):
        for n in (-5, 0, 2):
            assert seq_primes_below(n, ArithProg(1, 2)) == []
            with pytest.raises(DomainError):
                seq_primes_below(n, GeomProg(1, 2))


SQUARE_CASES = [
    (ArithProg(0, 1), 10, [1, 2, 4, 8, 15, 26, 42, 64, 93, 130]),
    (ArithProg(1, 1), 10, [1, 3, 7, 14, 25, 41, 63, 92, 129, 175]),
    (GeomProg(1, 2), 10, [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023]),
    (UsualPrimes(), 17,
     [1, 4, 10, 21, 39, 68, 110, 169, 247, 348, 478, 639, 837, 1076, 1358, 1687, 2069]),
    (AlternatingOnes(), 8, [1, 3, 4, 6, 7, 9, 10, 12]),
    (ZeroOne(), 11, [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36]),
    (FurstPattern(), 18,
     [1, 3, 4, 5, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21]),
    (ArithProg(2, 3), 10, [1, 4, 12, 28, 55, 96, 154, 232, 333, 460]),
]

CUBE_CASES = [
    (AlternatingOnes(), 20,
     [1, 5, 7, 14, 17, 27, 31, 44, 49, 65, 71, 90, 97, 119, 127, 152, 161, 189, 199, 230]),
    (ZeroOne(), 17,
     [1, 2, 7, 14, 29, 48, 79, 116, 169, 230, 311, 402, 517, 644, 799, 968, 1169]),
]


class TestSquaresAndCubes:
    @pytest.mark.parametrize("g,count,expected", SQUARE_CASES, ids=lambda v: str(v))
    def test_square_prefixes(self, g, count, expected):
        assert squares_sequence(count, g) == expected

    @pytest.mark.parametrize("g,count,expected", CUBE_CASES, ids=lambda v: str(v))
    def test_cube_prefixes(self, g, count, expected):
        assert cubes_sequence(count, g) == expected

    def test_usual_squares(self):
        assert squares_sequence(8, Constant(2)) == [i * i for i in range(1, 9)]

    def test_cake_numbers_are_centered_analogues_plus_one(self):
        # cake(n+1) = centered(n) + 1; compare against the closed forms too
        cake = squares_sequence(101, ArithProg(0, 1))
        centered = squares_sequence(100, ArithProg(1, 1))
        assert all(cake[i + 1] == centered[i] + 1 for i in range(100))
        for i, value in enumerate(cake, start=1):
            assert value == i + i * (i - 1) * (i - 2) // 6
        for i, value in enumerate(centered, start=1):
            assert value == i * (i * i + 5) // 6

    def test_domain(self):
        with pytest.raises(DomainError):
            squares_sequence(0, Constant(2))
        with pytest.raises(DomainError):
            cubes_sequence(-1, Constant(2))
