"""Core k-arithmetic: products, quotients, divisors, primes, identities."""

import math
import random
import sys
import threading
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import divisors_from_factors
from karith import (
    DivisorReport,
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

    @given(a=st.integers(min_value=-10**6, max_value=10**6),
           b=st.integers(min_value=-10**4, max_value=10**4).filter(bool), k=small_k)
    def test_is_the_closed_rational(self, a, b, k):
        # oracle: a/b + (b - 1)(1 - k/2) over one denominator
        ratio = Fraction(2 * a + b * (b - 1) * (2 - k), 2 * b)
        result = k_quotient(a, b, k)
        if ratio.denominator == 1:
            assert type(result) is int and result == ratio
        else:
            assert result == NotDivisible(ratio)
            assert str(result) == f"NotDivisible {ratio.numerator}/{ratio.denominator}"

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

    @given(a=ints, d=st.integers(min_value=-60, max_value=60), k=small_k)
    def test_divides_exactly_when_the_quotient_is_an_integer(self, a, d, k):
        exact = d > 0 and isinstance(k_quotient(a, d, k), int)
        assert k_divides(d, a, k) is exact


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
        # the reason holds for every k: odd term counts divide 0, and for
        # odd k the even ones do not
        refusal = r"^every odd term count divides 0; report refused$"
        for k in range(1, 5):
            assert all(k_divides(d, 0, k) for d in range(1, 100, 2)), k
            assert k_divides(2, 0, k) is (k % 2 == 0), k
            with pytest.raises(DomainError, match=refusal):
                k_divisors(0, k)
            with pytest.raises(DomainError, match=refusal):
                k_divisors_by_scan(0, k, 10)

    def test_scan_refuses_a_bound_below_1(self):
        for bound in (0, -1):
            with pytest.raises(DomainError, match=f"search bound must be positive, got {bound}"):
                k_divisors_by_scan(20, 3, bound)
        with pytest.raises(DomainError, match="divides 0"):
            k_divisors_by_scan(0, 3, 0)  # the zero subject is refused first

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

    # a = +-2**v * m with m odd and |a| < 2**13, small enough to scan to 2|a|
    @given(st.integers(0, 12).flatmap(lambda v: st.tuples(
        st.just(v), st.integers(0, (1 << (12 - v)) - 1), st.sampled_from((1, -1)))),
        st.integers(-9, 12))
    def test_theorem_route_matches_the_scan(self, subject, k):
        v, j, sign = subject
        a = sign * ((2 * j + 1) << v)
        report = k_divisors(a, k)
        assert list(report.divisors) == k_divisors_by_scan(a, k, 2 * abs(a))
        assert [d for d, _ in report.witnesses] == list(report.divisors)
        assert all(k_product(b, d, k) == a for d, b in report.witnesses)

    # |a| in 1e9..1e18, its bit length drawn first so that every size is tried
    @given(st.integers(30, 59).flatmap(lambda b: st.integers(
        max(1 << b, 10**9), min((2 << b) - 1, 10**18))), st.sampled_from((1, -1)),
        st.integers(-9, 12))
    def test_theorem_route_matches_the_candidate_route_up_to_10_18(self, magnitude, sign, k):
        a = sign * magnitude
        assert k_divisors(a, k) == candidate_route_divisors(a, k)

    def test_unproven_prime_factor_is_refused_by_name(self):
        # the prime 2**89 - 1 lies above psi_13, so any subject it divides is refused
        message = (f"primality of {2**89 - 1} is not proven: it is a strong probable prime "
                   "to every prime base up to 97")
        for a, k in [(2**89 - 1, 2), (2**89 - 1, 3), (-12 * (2**89 - 1), 5)]:
            with pytest.raises(DomainError) as failure:
                k_divisors(a, k)
            assert str(failure.value) == message

    def test_no_divisor_beyond_twice_magnitude(self):
        for a in (-60, -7, 5, 12, 36):
            for k in range(-10, 11):
                high = [
                    d
                    for d in range(2 * abs(a) + 1, 6 * abs(a) + 1)
                    if k_divides(d, a, k)
                ]
                assert high == []


def candidate_route_divisors(a, k):
    """The report k_divisors built before it read the divisor theorem: every
    usual divisor of 2|a| is a candidate, tested by k_divides, with its
    witness from k_quotient.  Kept as the oracle for the theorem route."""
    divisors = [d for d in usual_divisors(2 * abs(a)) if k_divides(d, a, k)]
    witnesses = tuple((d, k_quotient(a, d, k)) for d in divisors)
    return DivisorReport(a, tuple(divisors), witnesses, None)


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
        for p in range(-5, 5000):
            for k in range(-3, 5):
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
                monkeypatch.setattr(core, "_sieve_bits", None)
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
                assert core._sieve_bits in (None, bits_of(core._sieve_primes))
        finally:
            sys.setswitchinterval(interval)

    def test_characterization_leaves_the_sieve_empty(self, monkeypatch):
        # a sieve up to isqrt(p) would stay resident for the process's life
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        monkeypatch.setattr(core, "_sieve_bits", None)
        assert is_k_prime_by_characterization(10**12 + 39, 2)
        assert not is_k_prime_by_characterization(999983**2, 4)
        assert usual_divisors(10**12 + 39) == [1, 10**12 + 39]
        assert usual_divisors(999983**2) == [1, 999983, 999983**2]
        assert k_divisors(10**12 + 39, 2).divisors == (1, 10**12 + 39)
        assert k_divisors(999983**2, 4).divisors == (1, 999983, 999983**2)
        assert k_divisors(-(2**40) * 999983, 3).divisors[-1] == 2**41 * 999983
        assert core._sieve_limit == 1 and core._sieve_primes == []
        assert core._sieve_bits is None

    def test_bitset_equals_the_primes_list_at_every_sieve_size(self, monkeypatch):
        # from a cold sieve, through growth that reads no bitset and after
        # a reset, bit p is set exactly when p is a prime up to the limit
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        monkeypatch.setattr(core, "_sieve_bits", None)
        for upto, grow in [(6, 0), (7, 0), (64, 0), (65, 0), (1000, 0), (999, 0),
                           (1000, 3000), (20_000, 0), (20_000, 5000), (3, 0)]:
            if grow:
                nth_prime(grow)
                assert core._sieve_bits is None  # growth alone builds no bitset
            primes, bits = core._sieved_bits(upto)
            assert primes is core._sieve_primes and core._sieve_limit >= upto
            assert bits == bits_of(primes) and bits.bit_length() <= core._sieve_limit + 1
            assert core._sieved_bits(upto)[1] is bits  # built once per rebuild
        assert core._sieve_limit >= 48611  # nth_prime(5000) = 48611
        monkeypatch.setattr(core, "_sieve_limit", 1)
        monkeypatch.setattr(core, "_sieve_primes", [])
        monkeypatch.setattr(core, "_sieve_bits", None)
        primes, bits = core._sieved_bits(10)
        assert primes == [2, 3, 5, 7] and bits == 0b10101100


def bits_of(primes):
    """The int with bit p set for each p in primes, one bit at a time."""
    bits = 0
    for p in primes:
        bits |= 1 << p
    return bits


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


def trial_divisors(n):
    """Trial division up to the square root: the oracle for usual_divisors."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def trial_factorization(n):
    """Prime factors of n >= 1 with repeats, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        while n % f == 0:
            primes.append(f)
            n //= f
        f += 1 if f == 2 else 2
    return primes + [n] * (n > 1)


def strong_probable_prime(n, a):
    """True when the odd n > 2 is a strong probable prime to base a."""
    s = 0
    while (n - 1) >> s & 1 == 0:
        s += 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# The least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12
# prime bases (psi_1 = 2047, ..., psi_12), plus 2**64 - 1.  psi_j must meet
# more than its first j bases, so a table lookup one bound too low would call
# it prime.  psi_12 passes every base up to 37, so Miller-Rabin
# needs base 41 as well.  The expected divisors come from the literal
# factorizations.
PSI_12 = 318665857834031151167461
PSEUDOPRIMES = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (2**64 - 1, (3, 5, 17, 257, 641, 65537, 6700417)),
    (PSI_12, (399165290221, 798330580441)),
]


class TestFactorizationKernel:
    """usual_divisors and the even-k characterization factor with one gcd
    against the primes below 257, Miller-Rabin and Brent's rho; trial division
    here is their oracle."""

    def test_matches_trial_division(self):
        # past 257**2, where a cofactor stops being prime by size alone
        for n in range(1, 70_001):
            assert usual_divisors(n) == trial_divisors(n), n
        rng = random.Random(8)
        for n in (rng.randint(1, 10**11) for _ in range(300)):
            assert usual_divisors(n) == divisors_from_factors(trial_factorization(n)), n

    @pytest.mark.parametrize("n", [
        2**40, 3**23, 47**2 * 53**3, 999983**2, 999983 * 999979,
        251**2, 251 * 257, 257**2, 257 * 263, 65537, 65537 * 65539])
    def test_prime_powers_and_balanced_semiprimes(self, n):
        assert usual_divisors(n) == trial_divisors(n)

    # n <= 10**12, its bit length drawn first so that every size is tried
    @given(st.integers(0, 39).flatmap(lambda b: st.integers(1 << b, min((2 << b) - 1, 10**12))))
    def test_matches_trial_factorization_up_to_10_12(self, n):
        assert usual_divisors(n) == divisors_from_factors(trial_factorization(n))

    @pytest.mark.parametrize("n,factors", PSEUDOPRIMES, ids=[str(n) for n, _ in PSEUDOPRIMES])
    def test_strong_pseudoprimes_are_split(self, n, factors):
        assert math.prod(factors) == n
        assert usual_divisors(n) == divisors_from_factors(factors)
        assert not is_k_prime_by_characterization(n, 2)

    def test_each_bound_is_a_strong_pseudoprime_to_its_bases(self):
        # psi_j is composite (a failing prime base up to 97 proves it) and
        # passes the first j bases, so those bases cannot prove anything at psi_j
        assert list(core._PSI) == sorted(core._PSI) and core._PSI[-1] == core._PROVEN_BELOW
        assert len(core._PSI) == len(core._BASES)
        for j, psi in enumerate(core._PSI, 1):
            assert all(strong_probable_prime(psi, a) for a in core._BASES[:j]), j
            assert not all(strong_probable_prime(psi, a)
                           for a in core._BASES + core._MORE_BASES), j

    def test_unproven_probable_primes_are_refused(self, monkeypatch):
        # With base 2 alone taken as proof below 257**2, every cofactor that
        # reaches Miller-Rabin is at or above the bound.  There the bases 43
        # to 97 refute a composite, and a prime is refused as unproven.
        bound = 257**2
        monkeypatch.setattr(core, "_BASES", (2,))
        monkeypatch.setattr(core, "_PSI", (bound,))
        monkeypatch.setattr(core, "_PROVEN_BELOW", bound)
        for n, factors in [(280601, (277, 1013)), (873181, (661, 1321))]:
            assert math.prod(factors) == n and strong_probable_prime(n, 2)
            assert usual_divisors(n) == [1, *factors, n]
            assert not is_k_prime_by_characterization(n, 2)
        for n in range(bound, 160_001):
            if max(trial_factorization(n)) < bound:
                assert usual_divisors(n) == trial_divisors(n), n
            else:
                with pytest.raises(DomainError, match="^primality of [0-9]+ is not proven"):
                    usual_divisors(n)
        assert trial_factorization(66067) == [66067]  # the least prime above 257**2
        for check in (usual_divisors, lambda n: is_k_prime_by_characterization(n, 2)):
            with pytest.raises(DomainError, match="^primality of 66067 is not proven"):
                check(66067)


def test_usual_divisors_requires_positive():
    with pytest.raises(DomainError):
        usual_divisors(0)
    assert usual_divisors(12) == [1, 2, 3, 4, 6, 12]
