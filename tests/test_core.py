"""Core k-arithmetic: products, quotients, divisors, primes, identities."""

import random
import sys
import threading
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from karith import (
    DomainError,
    NotDivisible,
    goldbach_scan,
    identity_suite,
    is_k_prime,
    is_k_prime_by_characterization,
    k_divides,
    k_divisors,
    k_divisors_by_scan,
    k_primes_below,
    k_product,
    k_product_by_summation,
    k_quotient,
    nth_prime,
    polygonal,
    representations,
    t_peano_product,
    usual_divisors,
)
from karith import core

ints = st.integers(min_value=-200, max_value=200)
small_k = st.integers(min_value=-10, max_value=10)
counts = st.integers(min_value=1, max_value=50)


class TestProduct:
    def test_known_values(self):
        assert k_product(3, 5, 1) == 5
        assert k_product(7, 5, 3) == 45
        assert k_product(5, 7, 3) == 56
        assert k_product(5, 5, 1) == 15
        assert k_product(4, 4, 3) == 22

    def test_k2_is_usual_multiplication(self):
        assert k_product(7, 5, 2) == 35
        for m in range(-12, 13):
            for n in range(-12, 13):
                assert k_product(m, n, 2) == m * n

    @given(m=ints, k=small_k)
    def test_single_term(self, m, k):
        assert k_product(m, 1, k) == m

    def test_summation_example(self):
        assert k_product_by_summation(6, 5, 3) == 2 + 5 + 8 + 11 + 14 == 40

    def test_summation_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            k_product_by_summation(4, 0, 3)
        with pytest.raises(DomainError):
            k_product_by_summation(4, -2, 3)

    @given(m=ints, n=counts, k=small_k)
    def test_summation_oracle(self, m, n, k):
        assert k_product(m, n, k) == k_product_by_summation(m, n, k)

    def test_summation_oracle_grid(self):
        for m in range(-50, 51):
            for n in range(1, 51):
                for k in range(-10, 11):
                    assert k_product(m, n, k) == k_product_by_summation(m, n, k)


class TestPeanoProduct:
    @given(m=ints)
    def test_base_case(self, m):
        assert t_peano_product(m, 1, 9) == m

    def test_usual_product_at_t0(self):
        assert t_peano_product(7, 5, 0) == 35

    def test_shifted_difference(self):
        assert t_peano_product(7, 5, 1) == k_product(7, 5, 3) == 45

    @given(m=ints, n=counts, t=st.integers(min_value=-12, max_value=8))
    def test_matches_product_with_difference_t_plus_2(self, m, n, t):
        assert t_peano_product(m, n, t) == k_product(m, n, t + 2)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(DomainError):
            t_peano_product(3, 0, 1)


class TestQuotient:
    def test_known_values(self):
        assert k_quotient(81, 6, 3) == 11
        assert k_quotient(17, 2, 1) == 9

    def test_inexact_carries_rational(self):
        result = k_quotient(40, 6, 3)
        assert isinstance(result, NotDivisible)
        assert result.ratio == Fraction(25, 6)
        assert str(result) == "NotDivisible 25/6"

    @given(a=ints, k=small_k)
    def test_single_term_representation(self, a, k):
        assert k_quotient(a, 1, k) == a

    def test_zero_term_count_is_domain_error(self):
        with pytest.raises(DomainError):
            k_quotient(10, 0, 3)

    def test_negative_term_counts_work(self):
        # 6 * (-5) = -15 in the 3-arithmetic, so -15 / -5 recovers 6
        assert k_product(6, -5, 3) == -15
        assert k_quotient(-15, -5, 3) == 6

    @given(a=ints, b=st.integers(min_value=-60, max_value=60).filter(bool), k=small_k)
    def test_roundtrip_when_exact(self, a, b, k):
        c = k_quotient(a, b, k)
        if isinstance(c, int):
            assert k_product(c, b, k) == a


class TestDivisors:
    @pytest.mark.parametrize(
        "a,k,expected",
        [
            (20, 3, (1, 5, 8, 40)),
            (40, 4, (1, 2, 4, 5, 8, 10, 20, 40)),
            (40, 3, (1, 5, 16, 80)),
            (12, 3, (1, 3, 8, 24)),
        ],
    )
    def test_known_reports(self, a, k, expected):
        assert k_divisors(a, k).divisors == expected

    def test_negative_subject(self):
        report = k_divisors(-15, 3)
        assert 5 in report.divisors
        assert dict(report.witnesses)[5] == -5

    def test_unit_subject_follows_parity(self):
        assert k_divisors(1, 4).divisors == (1,)
        assert k_divisors(1, 3).divisors == (1, 2)

    def test_zero_subject_refused(self):
        with pytest.raises(DomainError):
            k_divisors(0, 3)
        with pytest.raises(DomainError):
            k_divisors_by_scan(0, 3, 10)

    def test_witnesses_reproduce_subject(self):
        for a in (-15, 12, 20, 40, 97):
            for k in (-3, 0, 1, 2, 3, 4):
                report = k_divisors(a, k)
                for d, b in report.witnesses:
                    assert k_product(b, d, k) == a

    @given(a=ints.filter(bool), k=small_k)
    def test_scan_oracle(self, a, k):
        report = k_divisors(a, k)
        assert list(report.divisors) == k_divisors_by_scan(a, k, 2 * abs(a))

    def test_no_divisor_beyond_twice_magnitude(self):
        for a in (-60, -7, 5, 12, 36):
            for k in range(-10, 11):
                high = [
                    d
                    for d in range(2 * abs(a) + 1, 6 * abs(a) + 1)
                    if k_divides(d, a, k)
                ]
                assert high == []


class TestRepresentations:
    def test_all_progressions_summing_to_12(self):
        reps = representations(12, 3)
        assert [(r.start, r.length) for r in reps] == [(12, 1), (3, 3), (-2, 8), (-11, 24)]
        by_length = {r.length: r for r in reps}
        assert by_length[8].terms == (-9, -6, -3, 0, 3, 6, 9, 12)
        for r in reps:
            assert len(r.terms) == r.length
            assert r.terms[0] == r.start - r.length + 1
            assert sum(r.terms) == 12
            assert all(b - a == 3 for a, b in zip(r.terms, r.terms[1:]))

    def test_usual_prime_has_two_representations(self):
        for p in (2, 3, 5, 7, 97):
            assert len(representations(p, 2)) == 2

    def test_lengths_follow_divisors(self):
        reps = representations(40, 3)
        assert sorted(r.length for r in reps) == [1, 5, 16, 80]
        for r in reps:
            assert sum(r.terms) == 40


class TestPrimes:
    def test_known_values(self):
        assert not is_k_prime(17, 1)
        assert is_k_prime(16, 1)
        assert is_k_prime(17, 2)

    @pytest.mark.parametrize("k", range(-5, 6))
    def test_one_is_never_prime(self, k):
        assert not is_k_prime(1, k)
        assert not is_k_prime(0, k)
        assert not is_k_prime(-7, k)

    def test_primes_below_85(self):
        usual = [p for p in range(2, 85) if all(p % f for f in range(2, p))]
        assert k_primes_below(85, 2) == usual
        assert k_primes_below(85, 4) == usual
        assert len(usual) == 23
        assert k_primes_below(85, 1) == [2, 4, 8, 16, 32, 64]

    def test_below_two_is_empty(self):
        assert k_primes_below(1, 3) == []
        assert k_primes_below(-5, 2) == []

    def test_characterization_agrees_with_divisor_count(self):
        for p in range(2, 301):
            for k in range(-9, 11):
                assert is_k_prime(p, k) == is_k_prime_by_characterization(p, k)

    @pytest.mark.parametrize("k", range(-9, 11))
    def test_census_matches_definitional_census(self, k):
        definitional = [p for p in range(2, 400) if is_k_prime(p, k)]
        for n in range(-3, 401):
            assert k_primes_below(n, k) == [p for p in definitional if p < n]

    def test_nth_prime_matches_trial_division(self):
        primes = []
        candidate = 2
        while len(primes) < 2000:
            if all(candidate % p for p in takewhile(lambda p: p * p <= candidate, primes)):
                primes.append(candidate)
            candidate += 1
        assert [nth_prime(i) for i in range(1, 2001)] == primes
        assert nth_prime(30000) == 350377
        with pytest.raises(DomainError):
            nth_prime(0)

    def test_census_is_a_copy(self):
        primes = k_primes_below(100, 2)
        primes.append(1)
        assert k_primes_below(100, 2)[-1] == 97


class TestSharedSieve:
    """The process-wide prime sieve is a memo: its state, and threads that
    grow it concurrently, cannot change any answer."""

    QUERIES = [
        (nth_prime, 1), (nth_prime, 2000), (nth_prime, 30000),
        (k_primes_below, 3, 2), (k_primes_below, 5000, 2), (k_primes_below, 100_000, 2),
        (goldbach_scan, 2, 600, True), (goldbach_scan, 4, 20_000),
        (is_k_prime_by_characterization, 97, 2),
        (is_k_prime_by_characterization, 10**12 + 39, 2),
        (is_k_prime_by_characterization, 999983**2, 4),
        (is_k_prime_by_characterization, 2**40, 0),
        (is_k_prime_by_characterization, 2**40, 1),
    ]

    def test_cold_concurrent_answers_equal_warm_answers(self, monkeypatch):
        warm = [fn(*args) for fn, *args in self.QUERIES]
        assert warm[2] == 350377 and warm[8:] == [True, True, False, False, True]
        orders = [random.Random(seed).sample(range(len(warm)), len(warm)) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_orders in (orders[:3], orders[3:], [list(range(len(warm)))] * 4):
                monkeypatch.setattr(core, "_sieve_limit", 1)
                monkeypatch.setattr(core, "_sieve_primes", [])
                results = [dict() for _ in round_orders]
                start = threading.Barrier(len(round_orders))

                def run(order, out):
                    start.wait()
                    for i in order:
                        fn, *args = self.QUERIES[i]
                        out[i] = fn(*args)

                threads = [threading.Thread(target=run, args=pair)
                           for pair in zip(round_orders, results)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for out in results:
                    assert [out[i] for i in range(len(warm))] == warm
                # the sieve only grows: a lost update would leave a smaller one
                # than nth_prime(30000), the largest query here, needs
                assert core._sieve_limit >= 350377 and len(core._sieve_primes) >= 30000
        finally:
            sys.setswitchinterval(interval)

    def test_characterization_leaves_the_sieve_empty(self, monkeypatch):
        # a sieve up to isqrt(p) would stay resident for the process's life
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        assert is_k_prime_by_characterization(10**12 + 39, 2)
        assert not is_k_prime_by_characterization(999983**2, 4)
        assert core._sieve_limit == 1 and core._sieve_primes == []


class TestPolygonal:
    def test_known_values(self):
        assert polygonal(4, 3) == 10
        assert polygonal(5, 5) == 35
        assert polygonal(4, 5) == 22

    def test_squares(self):
        for n in range(1, 40):
            assert polygonal(n, 4) == n * n

    def test_classical_closed_form(self):
        for n in range(1, 101):
            for sides in range(3, 13):
                classical = n * ((sides - 2) * n - (sides - 4)) // 2
                assert polygonal(n, sides) == classical

    def test_domain(self):
        with pytest.raises(DomainError):
            polygonal(4, 2)
        with pytest.raises(DomainError):
            polygonal(0, 5)


class TestIdentitySuite:
    def test_non_associative_triple(self):
        assert k_product(k_product(2, 3, 1), 4, 1) == 6
        assert k_product(2, k_product(3, 4, 1), 1) == -3
        suite = dict(identity_suite(2, 3, 4, 0, 1))
        assert suite["associativity"] is False

    def test_usual_arithmetic_satisfies_everything(self):
        for tup in [(2, 3, 4, 5), (-7, 0, 1, 9), (10, -4, -4, 3)]:
            assert all(holds for _, holds in identity_suite(*tup, k=2))

    @given(a=ints, b=ints, c=ints, d=ints, k=small_k)
    def test_relating_identities_always_hold(self, a, b, c, d, k):
        suite = dict(identity_suite(a, b, c, d, k))
        for name in ("commuting_pair", "distributive_form", "square_sum",
                     "difference_square", "negation"):
            assert suite[name]


class TestParityOfProductsByTwo:
    def test_even_k_gives_even_values(self):
        for k in (0, 4):
            assert all(k_product(a, 2, k) % 2 == 0 for a in range(-100, 101))

    def test_odd_k_gives_odd_values(self):
        for k in (-3, 1, 3):
            assert all(k_product(a, 2, k) % 2 == 1 for a in range(-100, 101))


def test_usual_divisors_requires_positive():
    with pytest.raises(DomainError):
        usual_divisors(0)
    assert usual_divisors(12) == [1, 2, 3, 4, 6, 12]
