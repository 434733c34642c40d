"""Sequence-generated arithmetics: products, divisors, primes, squares, cubes."""

import ast
import copy
import dataclasses
import itertools
import pickle
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

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
    divisors,
    exact_divisor_count_numbers,
    generators,
    k_divisors,
    k_primes_below,
    k_product,
    k_quotient,
    nth_prime,
    parse_generator,
    primes_below,
    seq_divisors,
    seq_is_prime,
    seq_primes_below,
    seq_product,
    seq_quotient,
    squares_sequence,
)
from karith import core, generated

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

# polynomials of degree 3-5, with negative coefficients and trailing zeros
HIGHER_POLYNOMIALS = [Polynomial((2, -1, 0, 3)), Polynomial((0, 0, 0, 0, 1)),
                      Polynomial((-4, 1, -2, 0, 0)), Polynomial((1, -3, 2, 0, -1, 2, 0))]


def _answers(read, *args):
    """[read(*args)], or [] when it raises DomainError."""
    try:
        return [read(*args)]
    except DomainError:
        return []


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

    def test_geometric_terms_below_1(self):
        # every term of gp:3,1 and gp:0,5 is a_1, below 1 too; any other ratio
        # has no integer term there and refuses, as explicit: and fpattern do
        for spec, a1 in [("gp:3,1", 3), ("gp:0,5", 0)]:
            g = parse_generator(spec)
            assert [g.term(i) for i in range(-2, 3)] == [a1] * 5
            assert g.term_range(-1, 3) == [a1] * 4
            assert all(type(t) is int for t in g.term_range(-1, 3))
        for spec, terms in [("gp:1,2", [1, 2, 4]), ("gp:2,-1", [2, -2, 2]),
                            ("gp:2,0", [2, 0, 0])]:
            g = parse_generator(spec)
            assert g.term_range(1, 4) == terms
            for read, index in [(lambda: g.term(0), 0), (lambda: g.term(-1), -1),
                                (lambda: g.term_range(-1, 3), -1), (lambda: g.term_range(0, 1), 0)]:
                with pytest.raises(DomainError) as failure:
                    read()
                assert str(failure.value) == f"term index must be positive, got {index}", spec

    @pytest.mark.parametrize("g", ALL_GENERATORS + HIGHER_POLYNOMIALS + [
        GeomProg(2, -1), GeomProg(2, 0), GeomProg(3, 1)], ids=lambda g: g.spec())
    def test_no_floats_anywhere(self, g):
        # every answer is an int (or a NotDivisible), else a DomainError
        span = range(-3, 41)
        for n in span:
            assert all(type(t) is int for t in _answers(g.term, n)), n
            assert all(type(w) is int for w in _answers(g.weighted, n)), n
            assert all(type(p) is int for p in _answers(seq_product, 5, n, g)), n
            if n:
                assert all(type(q) in (int, NotDivisible)
                           for q in _answers(seq_quotient, 40, n, g)), n
            for hi in span:
                for row in _answers(g.term_range, n, hi):
                    assert all(type(t) is int for t in row), (n, hi)

    def test_nth_prime_grows(self):
        assert nth_prime(25) == 97

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_prefix_sum_recurrence(self, g):
        sums = g.prefix_sums()
        for n in range(1, 501):
            plain = sum(g.term(i) for i in range(1, n + 1))
            assert sums.weighted(n + 1) - sums.weighted(n) == plain

    @pytest.mark.parametrize("g", ALL_GENERATORS + HIGHER_POLYNOMIALS, ids=lambda g: g.spec())
    def test_weighted_matches_the_memo(self, g):
        # closed formulas and memo reads answer W alike wherever both exist
        assert [g.weighted(n) for n in range(1, 151)] == [
            g.prefix_sums().weighted(n) for n in range(1, 151)
        ]

    @pytest.mark.parametrize("g", [Constant(-4), Constant(3), ArithProg(2, 5), ArithProg(-3, -2),
                                   Polynomial((1, 0, 5)), Polynomial((7,)), Polynomial((2, 3)),
                                   Polynomial((5, 0, 0)), Polynomial((1, 2, 0, 0)),
                                   *HIGHER_POLYNOMIALS],
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
        g = Polynomial((0, 1))  # ap:0,1's sequence 0, 1, 2, ...
        n = 10**6
        assert seq_product(3, n, g) == (4 - n) * n + n * (n - 1) * (n - 2) // 6
        assert "_sums" not in g.__dict__
        g = Polynomial((1, 0, 1))  # 1 + (i - 1)**2: no progression, still closed
        assert seq_product(3, 10**6, g) == 83332999999916670000000
        assert "_sums" not in g.__dict__
        g = Polynomial((2, -1, 0, 3))
        assert seq_quotient(7, -10**5, g) == NotDivisible(
            Fraction(-1500075001083335833310007, 100000))
        assert "_sums" not in g.__dict__

    @pytest.mark.parametrize("g", ALL_GENERATORS + HIGHER_POLYNOMIALS, ids=lambda g: g.spec())
    def test_bulk_read_matches_single_reads(self, g):
        # a cold memo grown in chunks of shuffled sizes: its residues against
        # Generator.weighted (the closed form for polynomial terms), its W
        # against the term-by-term oracle
        want = [0] + [g.weighted(d) % d for d in range(1, 401)]
        sums = dataclasses.replace(g).prefix_sums()
        sizes = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 168]  # 400 in all
        random.Random(g.spec()).shuffle(sizes)
        for n in itertools.accumulate(sizes, initial=0):
            assert sums.residues_upto(n) == want[: n + 1], n
        assert [sums.weighted(n) for n in range(1, 401)] == list(
            itertools.islice(_oracle_weighted(g), 400))

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_term_range_matches_term(self, g, monkeypatch):
        # a cold sieve makes the primes' ranges cross rebuilds; fpattern's
        # blocks start at 1, 4, 9, 18, 35, 68, 133, 262, so ranges meet edges
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        for lo, hi in [(1, 1), (1, 2), (1, 4), (3, 5), (4, 9), (8, 10), (9, 18), (17, 36),
                       (2, 40), (35, 68), (40, 300), (67, 134), (133, 600), (300, 2),
                       (262, 263), (1, 600)]:
            assert g.term_range(lo, hi) == [g.term(i) for i in range(lo, hi)], (lo, hi)
        # below 1, a bulk read fails exactly where the term loop does
        for lo, hi in [(0, 3), (-2, 1), (-5, -5), (0, 0)]:
            assert _outcome(g.term_range, lo, hi) == _outcome(
                lambda: [g.term(i) for i in range(lo, hi)]), (lo, hi)

    @given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=7),
           lo=st.integers(1, 400), length=st.integers(0, 60))
    def test_polynomial_term_range_is_the_term_loop(self, coeffs, lo, length):
        # degrees 0-6 of either sign, and the ap:, const: and gp: spellings
        # whose terms are polynomial: all read the Newton column at lo
        for g in (Polynomial(tuple(coeffs)), ArithProg(coeffs[0], coeffs[-1]),
                  Constant(coeffs[0]), GeomProg(coeffs[0], 1), GeomProg(0, coeffs[-1])):
            assert g.differences is not None
            assert g.term_range(lo, lo + length) == [g.term(i) for i in range(lo, lo + length)]

    def test_explicit_reads_one_past_its_prefix(self):
        g = Explicit((1, 2, 3))
        assert g.term_range(1, 4) == [1, 2, 3]
        assert g.weighted(4) == 3 * 1 + 2 * 2 + 1 * 3
        assert g.prefix_sums().residues_upto(4) == [0, 0, 1, 1, 2]  # W = 0, 1, 4, 10
        message = "explicit prefix has 3 terms, index 4 requested"
        reads = [lambda: g.term(4), lambda: g.term_range(1, 5), lambda: g.term_range(4, 9),
                 lambda: g.weighted(5), lambda: g.prefix_sums().residues_upto(5),
                 lambda: Explicit((1, 2, 3)).weighted(9),
                 lambda: Explicit((1, 2, 3)).prefix_sums().residues_upto(9)]
        for read in reads:
            with pytest.raises(PrefixExhaustedError) as failure:
                read()
            assert str(failure.value) == message
        # a failed read leaves the memo serving what the prefix allows
        assert g.prefix_sums().residues_upto(4) == [0, 0, 1, 1, 2]
        assert [g.weighted(n) for n in range(1, 5)] == [0, 1, 4, 10]

    def test_bulk_read_fails_like_single_reads(self):
        with pytest.raises(PrefixExhaustedError) as single:
            Explicit((1, 2)).prefix_sums().weighted(9)
        with pytest.raises(PrefixExhaustedError) as bulk:
            Explicit((1, 2)).prefix_sums().residues_upto(9)
        assert str(bulk.value) == str(single.value)
        assert str(bulk.value) == "explicit prefix has 2 terms, index 3 requested"
        with pytest.raises(DomainError):
            Constant(3).prefix_sums().residues_upto(-1)
        with pytest.raises(DomainError) as zero:
            Constant(3).prefix_sums().weighted(0)
        assert str(zero.value) == "weighted sum needs a positive term count, got 0"

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

    def test_parameterless_generators_are_frozen_dataclasses(self):
        kinds = (UsualPrimes, AlternatingOnes, ZeroOne, FurstPattern)
        assert [repr(kind()) for kind in kinds] == [
            "UsualPrimes()", "AlternatingOnes()", "ZeroOne()", "FurstPattern()"]
        assert len({kind() for kind in kinds}) == 4
        for kind in kinds:
            assert dataclasses.fields(kind()) == ()
            with pytest.raises(dataclasses.FrozenInstanceError):
                kind().extra = 1

    @pytest.mark.parametrize("g", ALL_GENERATORS, ids=lambda g: g.spec())
    def test_warm_generators_pickle_and_copy(self, g):
        # the memo holds a lock, which neither pickle nor deepcopy can take
        seq_product(3, 4, g)
        twin = pickle.loads(pickle.dumps(g))
        assert twin == g and hash(twin) == hash(g)
        assert copy.deepcopy(g) == g
        assert copy.copy(g).prefix_sums() is not g.prefix_sums()
        assert twin.prefix_sums().residues_upto(30) == g.prefix_sums().residues_upto(30)
        assert [twin.prefix_sums().weighted(n) for n in range(1, 31)] == [
            g.prefix_sums().weighted(n) for n in range(1, 31)]
        assert twin.differences == g.differences
        assert twin.divisor_factor == g.divisor_factor

    def test_differences_are_a_fact_not_a_field(self):
        # ap:3,0 and gp:3,1 spell const:3's sequence yet stay distinct generators
        g = GeomProg(3, 1)
        assert g.differences == (3,)
        assert repr(g) == "GeomProg(a1=3, r=1)" and g.spec() == "gp:3,1"
        assert [f.name for f in dataclasses.fields(g)] == ["a1", "r"]
        assert len({g, ArithProg(3, 0), Polynomial((3,)), Constant(3)}) == 4
        assert [h.differences for h in (ArithProg(2, 5), Polynomial((1, 2, 0)), GeomProg(0, 7))] == [
            (2, 5), (1, 2), (0,)]
        # the forward differences, trailing zeros dropped
        assert [parse_generator(s).differences for s in ("poly:5,0,0", "poly:1,0,1", "ap:3,0")] \
            == [(5,), (1, 1, 2), (3,)]
        assert Polynomial(()).differences == (0,)
        for h in (GeomProg(1, 2), GeomProg(2, 0), UsualPrimes(), Explicit((3, 3)),
                  AlternatingOnes(), ZeroOne(), FurstPattern()):
            assert h.differences is None, h.spec()
        assert "differences" not in {f.name for h in ALL_GENERATORS for f in dataclasses.fields(h)}

    @pytest.mark.parametrize("spec,factor", [
        ("const:3", 2), ("const:0", 2), ("ap:4,0", 2), ("poly:5,0,0", 2), ("gp:3,1", 2),
        ("gp:0,7", 2), ("ap:1,2", 6), ("ap:0,3", 6), ("ap:-3,-2", 6),
        ("poly:2,3", 6), ("poly:1,2,0,0", 6), ("poly:1,0,1", 12), ("poly:0,0,-4", 12),
        ("poly:-6,-5,-4,1", 60), ("poly:0,0,0,0,1", 60), ("poly:1,-3,2,0,-1,2", 420),
        ("poly:1,-3,2,0,-1,2,1", 840), ("gp:1,2", None), ("alt", None), ("zeroone", None),
        ("fpattern", None), ("primes", None), ("explicit:[1,2,3]", None),
    ])
    def test_divisor_factor(self, spec, factor):
        # lcm(2, ..., j + 2) for terms of degree j; no factor without differences
        assert parse_generator(spec).divisor_factor == factor

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

    @pytest.mark.parametrize("g", [UsualPrimes(), GeomProg(1, 2)], ids=lambda g: g.spec())
    def test_warm_reads_race_the_memo_growth(self, g, monkeypatch):
        # reads the memo covers take no lock while other threads grow it
        top = 2000
        oracle = [0, 0]  # W(n) from the term loop, serially
        plain = 0
        for i in range(1, top):
            plain += g.term(i)
            oracle.append(oracle[-1] + plain)
        residues = [0] + [w % d for d, w in enumerate(oracle) if d]
        g.weighted(60)  # a warm stretch to read while the rest grows
        # the primes' sieve grows too
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        # six threads meet at the growing end; two read in random order
        plans = [random.Random(slot).sample(range(1, top + 1), top) if slot < 2 else
                 list(range(1, top + 1)) for slot in range(8)]
        results = [None] * len(plans)
        start = threading.Barrier(len(plans))

        def worker(slot):
            start.wait()
            sums = g.prefix_sums()
            results[slot] = [sums.residues_upto(n) if n % 7 == 0 else g.weighted(n)
                             for n in plans[slot]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(plans))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for plan, got in zip(plans, results):
            assert got == [residues[: n + 1] if n % 7 == 0 else oracle[n] for n in plan]


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

    @given(
        a=st.integers(min_value=-10**6, max_value=10**6),
        b=st.integers(min_value=1, max_value=10**4),
        a1=st.integers(min_value=-20, max_value=20),
        d=st.integers(min_value=-20, max_value=20),
    )
    def test_is_the_rational_of_the_summed_weight(self, a, b, a1, d):
        # oracle: W(b) by literal summation of (b - i) * a_i over i < b
        w = sum((b - i) * (a1 + (i - 1) * d) for i in range(1, b))
        ratio = Fraction(a - w, b) + b - 1
        result = seq_quotient(a, b, parse_generator(f"ap:{a1},{d}"))
        if ratio.denominator == 1:
            assert type(result) is int and result == ratio
        else:
            assert result == NotDivisible(ratio)
            assert str(result) == f"NotDivisible {ratio.numerator}/{ratio.denominator}"

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

    def test_cubic_divisor_past_six_a(self):
        # 60 divides 2 here; a 6a scan missed it, the divisor lemma's 60a does not
        g = Polynomial((-6, -5, -4, 1))
        report = seq_divisors(2, g)
        assert report.witnesses == _oracle_divisors(2, g, 240)
        assert report.divisors == (1, 2, 4, 6, 10, 60)
        assert report.search_bound == 120
        assert seq_divisors(20, g).divisors[-1] == 600

    def test_polynomial_defaults_need_no_bound(self):
        # every polynomial sequence has its divisor factor as default bound factor
        for g in (Polynomial((1, 0, 1)), *HIGHER_POLYNOMIALS):
            assert seq_divisors(7, g).search_bound == 7 * g.divisor_factor
            assert seq_primes_below(30, g) == seq_primes_below(30, g, g.divisor_factor)
            assert seq_is_prime(13, g) == seq_is_prime(13, g, 13 * g.divisor_factor)

    def test_divisor_candidates_build_no_memo(self):
        g = ArithProg(1, 2)
        report = seq_divisors(200000, g)
        assert report.search_bound == 1200000
        assert report.witnesses == tuple((d, seq_quotient(200000, d, g)) for d in report.divisors)
        assert "_sums" not in g.__dict__

    def test_trailing_zero_coefficients_keep_the_degree(self):
        # poly:5,0,0 is the constant sequence 5, so it gets the constants' 2a default
        differences = [Polynomial(c).differences for c in ((5, 0, 0), (1, 2, 0, 0), (0, 0))]
        assert differences == [(5,), (1, 2), (0,)]
        assert seq_divisors(20, Polynomial((5, 0, 0))) == seq_divisors(20, Constant(5))

    def test_negative_subjects_of_polynomial_terms(self):
        # the divisor lemma holds for a < 0 (d | L * |a|): the report over the
        # usual divisors of L * |a| equals a literal scan to 3 * L * |a|
        found = 0
        for spec in ("ap:1,2", "ap:2,1", "ap:-3,5", "poly:0,3", "poly:1,0,1",
                     "poly:-6,-5,-4,1"):
            g = parse_generator(spec)
            factor = g.divisor_factor
            weights = list(itertools.islice(_oracle_weighted(g), 3 * factor * 150))
            for a in range(-150, 0):
                scan = tuple((d, (a - w) // d + d - 1)
                             for d, w in enumerate(weights[:3 * factor * -a], start=1)
                             if (a - w) % d == 0)
                report = seq_divisors(a, g)
                assert report.search_bound == factor * -a, (spec, a)
                assert report.witnesses == scan, (spec, a)
                assert divisors(a, g) == report
                found += len(scan)
        assert found == 921 + 814 + 921 + 780 + 910 + 915

    def test_negative_subjects_of_other_sequences_refused(self):
        for g in (GeomProg(1, 2), UsualPrimes(), AlternatingOnes()):
            with pytest.raises(DomainError,
                               match=r"^divisor report needs a positive subject, got -20$"):
                seq_divisors(-20, g, 100)

    def test_domain(self):
        with pytest.raises(DomainError):
            seq_divisors(0, ArithProg(1, 2))
        with pytest.raises(DomainError):
            seq_divisors(5, ArithProg(1, 2), 0)

    def test_is_prime_refuses_a_bound_below_1(self):
        # the bound is checked after p <= 1, as seq_divisors checks it after a < 1
        for bound in (0, -1):
            with pytest.raises(DomainError, match=f"search bound must be positive, got {bound}"):
                seq_is_prime(5, ArithProg(1, 2), bound)
        assert seq_is_prime(1, ArithProg(1, 2), 0) is False

    def test_constant_generator_matches_karith(self):
        # k_divisors and seq_divisors(Constant(k)) share the usual divisors of
        # 2|a| as candidates, so both answer to the scan past that bound
        for k in range(-6, 7):
            for a in range(-40, 40):
                if a:
                    scanned = _oracle_divisors(a, Constant(k), 2 * abs(a) + 50)
                    assert k_divisors(a, k).witnesses == scanned, (a, k)
                if a > 0:
                    assert seq_divisors(a, Constant(k)).witnesses == scanned, (a, k)


# Every spelling of the constant sequence k other than const:k, for k = -3..5
CONSTANT_SPELLINGS = [
    (k, spec) for k in range(-3, 6)
    for spec in (f"ap:{k},0", f"poly:{k}", f"poly:{k},0,0", f"gp:{k},1")
] + [(0, "gp:0,5")]


class TestRoutes:
    """``divisors``/``primes_below`` take the k-arithmetic's closed routes
    when every term is k, and ``prime_limit`` gives the covering lemma's
    limit; any other generator scans."""

    @pytest.mark.parametrize("k,spec", CONSTANT_SPELLINGS, ids=lambda v: str(v))
    def test_every_spelling_of_a_constant_is_the_k_arithmetic(self, k, spec):
        g = parse_generator(spec)
        for a in (-15, 1, 20, 97):
            for bound in (None, 1, 5):
                assert divisors(a, g, bound) == k_divisors(a, k)
        for factor in (None, 1, 6):
            assert primes_below(60, g, factor) == k_primes_below(60, k)
        for n in (2, 5, 30):
            assert g.prime_limit(n) == (2 * n + 1, False)
        for n in range(-20, 151):
            assert seq_product(7, n, g) == k_product(7, n, k), n
            if n:
                for a in (-7, 40, 81):
                    assert seq_quotient(a, n, g) == k_quotient(a, n, k), (a, n)
        assert g.differences == (k,)

    @pytest.mark.parametrize("k", range(-3, 6))
    def test_constants_answer_in_closed_form(self, k):
        g = Constant(k)
        for a in (20, -15, 1, 97):
            for bound in (None, 1, 5):
                assert divisors(a, g, bound) == k_divisors(a, k)
        for factor in (None, 1, 6):
            assert primes_below(60, g, factor) == k_primes_below(60, k)
        for n in (2, 5, 30):
            assert g.prime_limit(n) == (2 * n + 1, False)

    @pytest.mark.parametrize("g", ALL_GENERATORS[1:], ids=lambda g: g.spec())
    def test_other_generators_scan(self, g):
        for a in (1, 20, 97):
            assert divisors(a, g, 6 * a) == seq_divisors(a, g, 6 * a)
        for factor in (1, 6):
            assert primes_below(60, g, factor) == seq_primes_below(60, g, factor)
        for n in (2, 5, 30):
            assert g.prime_limit(n) == (2 * n, True)

    def test_only_non_constants_reach_the_scans(self, monkeypatch):
        # for even k the sieve and the closed census agree, so only a scan
        # that refuses to run shows which route was taken
        class ScanTaken(Exception):
            pass

        def refuse(*args):
            raise ScanTaken

        monkeypatch.setattr(generated, "seq_divisors", refuse)
        monkeypatch.setattr(generated, "seq_primes_below", refuse)
        constants = [parse_generator(spec) for _, spec in CONSTANT_SPELLINGS]
        for g in constants + [Constant(k) for k in range(-3, 6)]:
            k = g.differences[0]
            for bound in (None, 5):
                assert divisors(20, g, bound) == k_divisors(20, k), g.spec()
            for factor in (None, 6):
                assert primes_below(60, g, factor) == k_primes_below(60, k), g.spec()
        for g in ALL_GENERATORS[1:]:
            with pytest.raises(ScanTaken):
                divisors(20, g, 120)
            with pytest.raises(ScanTaken):
                primes_below(60, g, 6)

    def test_doubly_invalid_input_reports_the_first_check(self):
        with pytest.raises(DomainError, match=r"^search bound must be positive, got 0$"):
            divisors(0, Constant(2), 0)
        with pytest.raises(DomainError, match=r"^divisor report needs a positive subject, got 0$"):
            divisors(0, ArithProg(1, 2), 0)

    def test_source_has_no_generator_class_tests(self):
        classes = {name for name, obj in vars(generators).items()
                   if isinstance(obj, type) and issubclass(obj, generators.Generator)}
        found = []
        for path in sorted(Path(generators.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and len(node.args) == 2
                        and getattr(node.func, "id", None) == "isinstance"):
                    continue
                arg = node.args[1]
                named = {getattr(c, "id", getattr(c, "attr", None))
                         for c in (arg.elts if isinstance(arg, ast.Tuple) else [arg])}
                if named & classes:
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_one_class_answers_w(self):
        # every generator answers W through Generator.weighted's one formula
        # or its memo; no subclass carries a W of its own
        tree = ast.parse(Path(generators.__file__).read_text())
        defining = sorted(node.name for node in tree.body if isinstance(node, ast.ClassDef)
                          and any(isinstance(f, ast.FunctionDef) and f.name == "weighted"
                                  for f in node.body))
        assert defining == ["Generator", "PrefixSums"]


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


def _oracle_residues(g, n):
    """[0, W(1) mod 1, ..., W(n) mod n], failing where a term-by-term read does."""
    return [0] + [w % d for d, w in zip(range(1, n + 1), _oracle_weighted(g))]


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
    # degrees 3-6: negative coefficients, a trailing zero, and a_1 = p(0) = 0
    Polynomial((-6, -5, -4, 1)), Polynomial((0, 2, -1, 0, 1)),
    Polynomial((3, -1, 0, 2, 0, -1, 0)), Polynomial((1, 1, -2, 0, 1, 0, -1)),
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
        # term counts d >= limit reach at most W(d) mod d; factor 1 leaves no
        # such d, and a factor above L leaves only d that the lemma rules out
        for factor in (1, 2, 3, 5, 6, 13):
            for limit in (*range(2, 17), 60):
                for count in (1, 2, 3, 4):
                    assert exact_divisor_count_numbers(count, limit, g, factor) \
                        == _oracle_census(count, limit, g, factor), (count, limit, factor)
                assert seq_primes_below(limit, g, factor) == _oracle_census(2, limit, g, factor)
        for a in range(1, 40):
            report = seq_divisors(a, g, 6 * a)
            assert report.witnesses == _oracle_divisors(a, g, 6 * a), a
            assert report.divisors == tuple(d for d, _ in report.witnesses)

    @pytest.mark.parametrize("g", [g for g in ORACLE_GENERATORS if g.divisor_factor],
                             ids=lambda g: g.spec())
    def test_divisor_candidates_at_every_bound(self, g):
        # the factored candidates against the scan below, at and past L * a
        factor = g.divisor_factor
        for a in range(1, 30):
            scanned = _oracle_divisors(a, g, factor * a + 50)
            for bound in (a, 3 * a, factor * a, factor * a + 50):
                want = tuple(w for w in scanned if w[0] <= bound)
                assert seq_divisors(a, g, bound).witnesses == want, (a, bound)
            assert seq_divisors(a, g) == seq_divisors(a, g, factor * a)

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
            for n in range(9):
                want = _outcome(_oracle_residues, g, n)
                assert _outcome(dataclasses.replace(g).prefix_sums().residues_upto, n) == want
                assert _outcome(g.prefix_sums().residues_upto, n) == want, (g.spec(), n)
            for a in range(1, 8):
                for bound in range(1, 9):
                    got = _outcome(lambda: seq_divisors(a, g, bound).witnesses)
                    assert got == _outcome(_oracle_divisors, a, g, bound)
                    got = _outcome(seq_is_prime, a, g, bound)
                    want = _outcome(lambda: a > 1 and _oracle_divisor_count(a, g, bound, 2) == 2)
                    assert got == want, (g.spec(), a, bound)

    @pytest.mark.parametrize("g", [g for g in ORACLE_GENERATORS if g.divisor_factor
                                   and len(g.differences) > 3], ids=lambda g: g.spec())
    def test_default_census_is_mostly_tail(self, g):
        # L up to 840: almost every term count scanned is past the limit
        factor = g.divisor_factor
        for count in (1, 2, 3, 4):
            assert exact_divisor_count_numbers(count, 40, g) \
                == _oracle_census(count, 40, g, factor), count
        assert seq_primes_below(40, g) == _oracle_census(2, 40, g, factor)

    @pytest.mark.parametrize("g", [g for g in ORACLE_GENERATORS if g.divisor_factor],
                             ids=lambda g: g.spec())
    def test_is_prime_by_the_divisor_lemma(self, g):
        factor = g.divisor_factor
        for p in range(2, 151):
            for bound in (p, factor * p, factor * p + 50):
                want = _oracle_divisor_count(p, g, bound, 2) == 2
                assert seq_is_prime(p, g, bound) == want, (p, bound)
                if bound == factor * p:
                    assert seq_is_prime(p, g) == want, p

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


# every scanned sequence of ORACLE_GENERATORS, more W of either sign, and a prefix
SCANNED_GENERATORS = [g for g in ORACLE_GENERATORS if g.differences is None] + [
    GeomProg(1, -2), GeomProg(3, -1), Explicit(tuple(range(-200, 400)))]


class TestResidueTable:
    """``PrefixSums.residues_upto`` and the scans that read it, against W itself."""

    @pytest.mark.parametrize("g", SCANNED_GENERATORS, ids=lambda g: g.spec())
    def test_residues_are_w_mod_d(self, g):
        want = _oracle_residues(g, 400)
        sums = dataclasses.replace(g).prefix_sums()  # cold, then grown in shuffled order
        for n in random.Random(3).sample(range(401), 401):
            assert sums.residues_upto(n) == want[: n + 1], n
        with pytest.raises(DomainError, match=r"^prefix length must be >= 0, got -1$"):
            sums.residues_upto(-1)

    @pytest.mark.parametrize("g", SCANNED_GENERATORS, ids=lambda g: g.spec())
    def test_scans_whatever_the_memo_holds(self, g):
        rng = random.Random(g.spec())
        cases = [(a, bound) for bound in (1, 2, 7, 60, 301)
                 for a in {1, bound - 1, bound, bound + 1, rng.randint(1, 400), 10**12 + 1}
                 if a >= 1]
        warm_sums, warm_table, shuffled = (dataclasses.replace(g) for _ in range(3))
        warm_sums.prefix_sums().weighted(400)
        warm_table.prefix_sums().residues_upto(400)
        for a, bound in rng.sample(cases, len(cases)):
            want = _oracle_divisors(a, g, bound)
            for h in (dataclasses.replace(g), warm_sums, warm_table, shuffled):
                assert seq_divisors(a, h, bound).witnesses == want, (a, bound)
                assert seq_is_prime(a, h, bound) == (a > 1 and len(want) == 2), (a, bound)
        for limit in (rng.randint(3, 60), 90):
            want = _oracle_census(3, limit, g, 2)
            for h in (dataclasses.replace(g), warm_sums, warm_table, shuffled):
                assert exact_divisor_count_numbers(3, limit, h, 2) == want, limit
                assert seq_primes_below(limit, h, 2) == _oracle_census(2, limit, g, 2), limit

    def test_warm_scan_divides_up_to_the_subject_and_searches_past_it(self, monkeypatch):
        g = UsualPrimes()
        want = _oracle_divisors(317, g, 4000)
        assert seq_divisors(317, g, 4000).witnesses == want  # the warm-up
        reads = {"weighted": 0, "items": [], "searched_from": []}

        class Logged(list):
            def __getitem__(self, i):
                reads["items"].append(i)
                return super().__getitem__(i)

            def index(self, value, start, *stop):
                reads["searched_from"].append(start)
                return super().index(value, start, *stop)

        sums = generators.PrefixSums
        weighted, residues_upto = sums.weighted, sums.residues_upto

        def counted_weighted(self, n):
            reads["weighted"] += 1
            return weighted(self, n)

        monkeypatch.setattr(sums, "weighted", counted_weighted)
        monkeypatch.setattr(sums, "residues_upto", lambda self, n: Logged(residues_upto(self, n)))
        report = seq_divisors(317, g, 4000)
        assert report.witnesses == want
        assert reads["weighted"] <= len(report.divisors)
        # d <= 317 compares W(d) mod d with 317 mod d; every larger d is searched for
        assert sorted(set(reads["items"])) == list(range(1, 318))
        assert reads["searched_from"] == [318] + [d + 1 for d in report.divisors if d > 317]
        assert any(d > 317 for d in report.divisors)

    @pytest.mark.parametrize("g", [ZeroOne(), UsualPrimes(), GeomProg(1, 2)],
                             ids=lambda g: g.spec())
    def test_only_scans_and_censuses_build_the_table(self, g):
        g = dataclasses.replace(g)
        squares_sequence(50, g)
        cubes_sequence(50, g)
        seq_product(3, 80, g)
        seq_quotient(40, 60, g)
        assert g.prefix_sums()._residues == [0]
        seq_divisors(20, g, 90)
        assert len(g.prefix_sums()._residues) == 91
        exact_divisor_count_numbers(3, 60, g, 2)
        assert len(g.prefix_sums()._residues) == 119


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


# one W(i) read per index: the oracle for the single bulk read
PER_INDEX = [
    (squares_sequence, lambda i, g: seq_product(i, i, g)),
    (cubes_sequence, lambda i, g: seq_product(seq_product(i, i, g), i, g)),
]


class TestSquaresAndCubes:
    @pytest.mark.parametrize("g,count,expected", SQUARE_CASES, ids=lambda v: str(v))
    def test_square_prefixes(self, g, count, expected):
        assert squares_sequence(count, g) == expected

    @pytest.mark.parametrize("g,count,expected", CUBE_CASES, ids=lambda v: str(v))
    def test_cube_prefixes(self, g, count, expected):
        assert cubes_sequence(count, g) == expected

    @pytest.mark.parametrize("fn,per_index", PER_INDEX, ids=["squares", "cubes"])
    def test_cold_memo_grows_in_one_read(self, fn, per_index, monkeypatch):
        want = [per_index(i, ZeroOne()) for i in range(1, 301)]
        reads = []
        term_range = ZeroOne.term_range

        def counted(self, lo, hi):
            reads.append((lo, hi))
            return term_range(self, lo, hi)

        monkeypatch.setattr(ZeroOne, "term_range", counted)
        assert fn(300, ZeroOne()) == want
        assert reads == [(1, 300)]

    @pytest.mark.parametrize("fn,per_index", PER_INDEX, ids=["squares", "cubes"])
    def test_prefix_runs_out_as_a_read_per_index_would(self, fn, per_index):
        for g in SHORT_PREFIXES:
            for count in range(1, 9):
                fresh = dataclasses.replace(g)  # a cold memo, grown one index at a time
                want = _outcome(lambda: [per_index(i, fresh) for i in range(1, count + 1)])
                assert _outcome(fn, count, g) == want, (g.spec(), count)

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
