"""Prime covering sets: progression windows, residuals, generated analogues."""

import copy
import json
import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from karith import (
    ArithProg,
    Constant,
    DomainError,
    GeomProg,
    Polynomial,
    k_primes_below,
    k_product,
    locate_power_of_two_cover,
    progression_window,
    residual_set,
    seq_product,
    seq_residual_set,
    verify_witnesses,
)
from karith import coverage
from karith.cli import main
from karith.generated import primes_below
from karith.generators import parse_generator


def brute_force_residual(k, window_half, index_span=4000):
    """Mark products over a wide index scan instead of the solved interval."""
    primes = k_primes_below(2 * window_half + 1, k)
    covered = set()
    for p in primes:
        for n in range(-index_span, index_span + 1):
            v = k_product(n, p, k)
            if -window_half <= v <= window_half:
                covered.add(v)
    return [x for x in range(-window_half, window_half + 1) if x not in covered]


def marking_oracle(g, window_half, prime_limit):
    """The bytearray marking a constant arithmetic took before its residual
    came from the theorem: one slice per prime over the window, each offset
    product(0, p) through the general seq_product route.  Returns (primes,
    offsets, residual)."""
    primes = tuple(primes_below(prime_limit, g))
    offsets = tuple(seq_product(0, p, g) for p in primes)
    width = 2 * window_half + 1
    covered = bytearray(width)
    for p, offset in zip(primes, offsets):
        start = (window_half + offset) % p
        covered[start::p] = b"\1" * len(range(start, width, p))
    residual = tuple(i - window_half for i in range(width) if not covered[i])
    return primes, offsets, residual


class TestProgressionWindow:
    def test_known_rows(self):
        assert progression_window(3, 2, 1, range(-9, 10)) == list(range(-28, 27, 3))
        assert progression_window(5, 0, 2, range(-9, 10)) == list(range(-45, 46, 5))
        assert progression_window(5, 0, 4, range(-10, 11)) == list(range(-30, 71, 5))
        assert progression_window(2, 0, 1, range(-10, 11)) == list(range(-21, 20, 2))
        assert progression_window(16, 0, 1, range(-5, 11)) == list(range(-200, 41, 16))

    def test_unit_difference_shifts_the_index_range(self):
        values = progression_window(1, 0, 7, range(-4, 5))
        assert values == list(range(-4, 5))

    def test_linearity(self):
        for k in range(-10, 11):
            for a in range(1, 13):
                values = progression_window(a, 5, k, range(-8, 9))
                diffs = {b2 - b1 for b1, b2 in zip(values, values[1:])}
                assert diffs == {a}

    def test_even_k_windows_coincide_after_index_shift(self):
        for k in (-6, -2, 0, 4, 10):
            for p in (2, 3, 5, 7):
                shift = (p - 1) * (k - 2) // 2
                shifted = progression_window(p, 0, k, range(-12 - shift, 13 - shift))
                usual = progression_window(p, 0, 2, range(-12, 13))
                assert sorted(shifted) == sorted(usual)

    def test_domain(self):
        with pytest.raises(DomainError):
            progression_window(0, 1, 3, range(5))


class TestResidualSet:
    def test_even_difference_misses_units(self):
        report = residual_set(2, 60)
        assert report.residual == (-1, 1)

    def test_odd_difference_misses_zero(self):
        assert residual_set(1, 60).residual == (0,)
        assert residual_set(3, 10).residual == (0,)

    def test_brute_force_oracle_small_windows(self):
        for k in (-3, -2, 1, 2, 3, 6):
            report = residual_set(k, 12)
            assert list(report.residual) == brute_force_residual(k, 12), k

    def test_window_200_sweep(self):
        for k in range(-6, 8):
            report = residual_set(k, 200)
            expected = (-1, 1) if k % 2 == 0 else (0,)
            assert report.residual == expected, k

    def test_witnesses_are_sound(self):
        for k in (-5, -2, 0, 3, 4):
            report = residual_set(k, 40)
            assert verify_witnesses(report)
            for value, (p, n) in report.witnesses.items():
                assert k_product(n, p, k) == value

    def test_covered_and_residual_partition_the_window(self):
        report = residual_set(3, 25)
        window = set(range(-25, 26))
        covered = report.covered & window
        assert covered | set(report.residual) == window
        assert covered & set(report.residual) == set()

    def test_domain(self):
        with pytest.raises(DomainError):
            residual_set(2, 1)


class TestPowerOfTwoCover:
    def test_known_examples(self):
        assert locate_power_of_two_cover(7, 1) == (2, 4)
        assert locate_power_of_two_cover(40, 1)[0] == 16

    def test_negative_value(self):
        p, n = locate_power_of_two_cover(-12, 3)
        assert p == 8
        assert k_product(n, p, 3) == -12

    def test_witness_everywhere_in_a_window(self):
        for k in (-3, 1, 5):
            for h in range(-40, 41):
                if h == 0:
                    continue
                p, n = locate_power_of_two_cover(h, k)
                assert k_product(n, p, k) == h
                assert p & (p - 1) == 0 and p >= 2

    def test_agrees_with_the_valuation_formula(self):
        def by_valuation(h, k):
            s, m = 0, abs(h)
            while m % 2 == 0:
                m //= 2
                s += 1
            p = 2 ** (s + 1)
            n, r = divmod(h - (p * (p - 1) // 2) * (k - 2), p)
            assert r == 0
            return p, n

        large = [sign * 2**100 * odd for sign in (1, -1) for odd in (1, 3, 2**40 + 1)]
        for k in (-7, -3, -1, 1, 3, 5, 9, 10**30 + 1):
            for h in [*range(-2000, 0), *range(1, 2001), *large]:
                assert locate_power_of_two_cover(h, k) == by_valuation(h, k), (h, k)

    def test_zero_never_covered_for_odd_k(self):
        for k in (-5, -1, 1, 3, 7):
            for t in range(1, 13):
                p = 2**t
                assert all(k_product(c, p, k) != 0 for c in range(-10_000, 10_001))

    def test_domain(self):
        with pytest.raises(DomainError):
            locate_power_of_two_cover(12, 2)
        with pytest.raises(DomainError):
            locate_power_of_two_cover(0, 3)


# Recorded residual rows for the progression-generated arithmetics at window
# half-width 60 with primes below 200.  Each row is a contiguous excerpt of
# the full residual around zero, so each fixture compares the slice between
# its endpoints.
RECORDED_ROWS = {
    (1, 3): [0],
    (1, 1): [-26, -24, -22, -18, -14, -10, -8, -6, -2, 0,
             2, 6, 8, 10, 14, 18, 22, 24, 26, 30],
    (2, 3): [-1, 1],
    (2, 1): [-16, -13, -12, -10, -9, -7, -4, -3, -1, 0,
             2, 5, 6, 8, 11, 14, 15, 17, 18, 20],
    (2, 2): [-11, -10, -9, -8, -6, -5, -4, -3, -2, -1,
             1, 2, 3, 4, 5, 6, 8, 9, 10, 11],
}


def case_report(a, b):
    return seq_residual_set(ArithProg(a, b), 60, 200)


class TestGeneratedResiduals:
    @pytest.mark.parametrize("case", sorted(RECORDED_ROWS), ids=str)
    def test_recorded_rows_as_slices(self, case):
        row = RECORDED_ROWS[case]
        residual = case_report(*case).residual
        assert [x for x in residual if row[0] <= x <= row[-1]] == row

    def test_all_composite_case_leaves_everything(self):
        report = seq_residual_set(ArithProg(1, 2), 10, 200)
        assert report.primes_used == ()
        assert report.residual == tuple(range(-10, 11))

    def test_odd_start_step_three_misses_zero_only(self):
        assert seq_residual_set(ArithProg(1, 3), 30, 200).residual == (0,)

    def test_even_start_step_three_misses_units_only(self):
        assert seq_residual_set(ArithProg(2, 3), 60, 200).residual == (-1, 1)

    def test_case_two_set_builder(self):
        # residual = {values whose 2-adic valuation is odd} plus zero
        def valuation2(x):
            s = 0
            while x % 2 == 0:
                x //= 2
                s += 1
            return s

        residual = case_report(1, 1).residual
        expected = [
            x for x in range(-60, 61)
            if x == 0 or valuation2(abs(x)) % 2 == 1
        ]
        assert list(residual) == expected

    def test_case_five_set_builder(self):
        # residual = {3**(s-1) * (3t + 2)} plus zero
        def in_set(x):
            if x == 0:
                return True
            while x % 3 == 0:
                x //= 3
            return x % 3 == 2

        residual = case_report(2, 1).residual
        assert list(residual) == [x for x in range(-60, 61) if in_set(x)]

    def test_case_six_complement_is_multiples_of_one_mod_six_primes(self):
        report = case_report(2, 2)
        interesting = [p for p in k_primes_below(121, 2) if p % 6 == 1]
        covered = {
            t * p for p in interesting for t in range(-60, 61) if -60 <= t * p <= 60
        } | {0}
        # 0 = 0 * p is covered once any prime exists
        assert set(range(-60, 61)) - set(report.residual) == covered

    def test_window_30_includes_the_edge_value(self):
        # the recorded row for this case starts at -26; the true residual at
        # half-width 30 additionally contains -30
        residual = seq_residual_set(ArithProg(1, 1), 30, 200).residual
        assert -30 in residual
        assert [x for x in residual if -26 <= x <= 30] == RECORDED_ROWS[(1, 1)]

    def test_generated_witnesses_are_sound(self):
        g = ArithProg(2, 1)
        report = seq_residual_set(g, 40, 100)
        assert verify_witnesses(report, g)
        for value, (p, n) in report.witnesses.items():
            assert seq_product(n, p, g) == value

    def test_empty_polynomial_verifies_through_its_spec(self):
        # verify_witnesses parses the report's arithmetic, poly:0
        assert verify_witnesses(seq_residual_set(Polynomial(()), 5, 20))

    def test_constant_generator_routes_to_k_arithmetic(self):
        report = seq_residual_set(Constant(2), 30, 61)
        assert report.residual == (-1, 1)

    def test_non_progression_generator_needs_bound(self):
        with pytest.raises(DomainError):
            seq_residual_set(GeomProg(1, 2), 20, 50)
        report = seq_residual_set(GeomProg(1, 2), 20, 50, bound_factor=6)
        assert isinstance(report.residual, tuple)

    def test_domain(self):
        with pytest.raises(DomainError):
            seq_residual_set(ArithProg(1, 1), 1, 200)
        with pytest.raises(DomainError):
            seq_residual_set(ArithProg(1, 1), 30, 1)


class TestReportSerialization:
    def test_bracket_row(self):
        assert residual_set(2, 60).to_bracket_row() == "[-1 1]"

    def test_json_dict_shape(self, capsys):
        # the CLI builds the coverage record from the report's fields
        assert main(["coverage", "--arith", "const:1", "--window", "20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == [-20, 20]
        assert payload["arithmetic"] == "const:1"
        assert payload["residual"] == [0]
        assert all(isinstance(p, int) for p in payload["primes"])


def setdefault_oracle(g, window_half, prime_limit, bound_factor=None):
    """The per-value marking the bytearray slices replaced: one setdefault
    per covered value over each prime's solved index interval, in ascending
    prime order, so the first prime wins.  Returns (primes, witnesses,
    residual)."""
    primes = tuple(primes_below(prime_limit, g, bound_factor))
    witnesses = {}
    for p in primes:
        offset = seq_product(0, p, g)
        lo = -((window_half + offset) // p)
        hi = (window_half - offset) // p
        for n in range(lo, hi + 1):
            witnesses.setdefault(p * n + offset, (p, n))
    residual = tuple(
        x for x in range(-window_half, window_half + 1) if x not in witnesses
    )
    return primes, witnesses, residual


EXPLICIT = "explicit:[" + ",".join(str(i * i % 7 - 2) for i in range(1, 800)) + "]"
#: (spec, bound factor) pairs; negative offsets product(0, p) occur in most
ARITHMETICS = [
    ("ap:2,1", None), ("ap:5,-2", None), ("ap:-3,2", 4), ("ap:1,2", 4),
    ("poly:0,3", None), ("poly:1,0,1", None), ("poly:-2,1,1", None),
    (EXPLICIT, 2), (EXPLICIT, 3),
    ("primes", 1), ("primes", 2), ("alt", 1), ("alt", 2), ("zeroone", 1), ("zeroone", 4),
]


def prime_limits(window_half):
    """Limits below, at and above 2N + 1, from which a constant arithmetic's
    residual comes from the theorem; 2N is the last limit below it."""
    return (2, 3, window_half + 1, 2 * window_half, 2 * window_half + 1, 3 * window_half + 7)


def assert_matches_oracle(g, window_half, prime_limit, bound_factor=None):
    report = seq_residual_set(g, window_half, prime_limit, bound_factor)
    primes, witnesses, residual = setdefault_oracle(g, window_half, prime_limit, bound_factor)
    assert report.primes_used == primes
    assert report.residual == residual
    assert list(report.witnesses.items()) == list(witnesses.items())  # and their order
    assert verify_witnesses(report, g)


class TestMarkingOracle:
    @pytest.mark.parametrize("k", range(-6, 13))
    def test_k_grid(self, k):
        g = Constant(k)
        for window_half in range(2, 81):
            for prime_limit in prime_limits(window_half):
                assert_matches_oracle(g, window_half, prime_limit)

    @pytest.mark.parametrize("spec, factor", ARITHMETICS, ids=lambda v: str(v)[:12])
    def test_generated_grid(self, spec, factor):
        g = parse_generator(spec)
        for window_half in (2, 3, 7, 20, 41, 80):
            for prime_limit in prime_limits(window_half):
                assert_matches_oracle(g, window_half, prime_limit, factor)

    @given(k=st.integers(-6, 12), window_half=st.integers(2, 80), data=st.data())
    def test_k_arithmetics(self, k, window_half, data):
        prime_limit = data.draw(st.integers(2, 3 * window_half + 7))
        assert_matches_oracle(Constant(k), window_half, prime_limit)

    @given(case=st.sampled_from(ARITHMETICS), window_half=st.integers(2, 80), data=st.data())
    def test_generated_arithmetics(self, case, window_half, data):
        spec, factor = case
        prime_limit = data.draw(st.integers(2, 3 * window_half + 7))
        assert_matches_oracle(parse_generator(spec), window_half, prime_limit, factor)


# every spelling of the constant sequence k, as in test_generated's
# CONSTANT_SPELLINGS, for k = -3..12, and gp:0,r for k = 0
CONSTANT_SPELLINGS = [
    spec for k in range(-3, 13)
    for spec in (f"const:{k}", f"ap:{k},0", f"poly:{k}", f"poly:{k},0,0", f"gp:{k},1")
] + ["gp:0,5"]


@pytest.mark.parametrize("spec", CONSTANT_SPELLINGS)
def test_constant_offsets_match_the_product_route(spec):
    # a constant sequence takes product(0, p) in closed form; the general
    # seq_product route is the oracle
    g = parse_generator(spec)
    for window_half in (2, 37, 500):
        assert g.prime_limit(window_half) == 2 * window_half + 1
        report = seq_residual_set(g, window_half)
        primes, witnesses, residual = setdefault_oracle(g, window_half, 2 * window_half + 1)
        assert report.primes_used == primes
        assert report.offsets == tuple(seq_product(0, p, g) for p in primes)
        assert report.residual == residual
        assert list(report.witnesses.items()) == list(witnesses.items())


def assert_matches_marking(report, k, window_half, prime_limit):
    g = Constant(k)
    assert (report.primes_used, report.offsets, report.residual) == marking_oracle(
        g, window_half, prime_limit)
    witnesses = setdefault_oracle(g, window_half, prime_limit)[1]
    assert list(report.witnesses.items()) == list(witnesses.items())


class TestConstantTheorem:
    """A constant arithmetic at a prime limit of at least 2N + 1 reads its
    residual from the theorem; below that limit it still marks the window."""

    @given(k=st.integers(-60, 60), window_half=st.integers(2, 3000), data=st.data())
    def test_constant_theorem_matches_the_marking_oracle(self, k, window_half, data):
        report = residual_set(k, window_half)
        assert report.residual == ((0,) if k % 2 else (-1, 1))
        assert_matches_marking(report, k, window_half, 2 * window_half + 1)
        prime_limit = data.draw(st.integers(2 * window_half + 1, 4 * window_half + 2))
        report = seq_residual_set(Constant(k), window_half, prime_limit)
        assert_matches_marking(report, k, window_half, prime_limit)

    @given(k=st.integers(-60, 60), window_half=st.integers(2, 3000), data=st.data())
    def test_constant_theorem_below_its_limit_marks(self, k, window_half, data):
        limits = (2, 3, window_half, 2 * window_half, data.draw(st.integers(2, 2 * window_half)))
        for prime_limit in limits:
            report = seq_residual_set(Constant(k), window_half, prime_limit)
            assert_matches_marking(report, k, window_half, prime_limit)

    def test_only_the_theorem_limit_skips_the_window(self, monkeypatch):
        built = []

        def counting_bytearray(width):
            built.append(width)
            return bytearray(width)

        monkeypatch.setattr(coverage, "bytearray", counting_bytearray, raising=False)
        for k in (-3, 2, 5):
            for window_half in (2, 30):
                residual_set(k, window_half)
                seq_residual_set(Constant(k), window_half, 4 * window_half + 2)
        assert built == []
        seq_residual_set(Constant(2), 10, 3)  # below 2N + 1
        seq_residual_set(Constant(3), 10, 20)
        seq_residual_set(ArithProg(2, 1), 10, 21)  # not constant
        seq_residual_set(Polynomial((2, 0, 1)), 10, 21)
        assert built == [21, 21, 21, 21]


class TestLazyWitnesses:
    """The witness map is built on first read; the report must not show it."""

    def reports(self):
        return [residual_set(2, 30), residual_set(-3, 25),
                seq_residual_set(ArithProg(2, 1), 40, 100)]

    def test_equal_whether_or_not_read(self):
        for fresh, read in zip(self.reports(), self.reports()):
            assert read.witnesses
            assert fresh == read and read == fresh
            assert hash(fresh) == hash(read)
            assert repr(fresh) == repr(read)

    def test_copy_and_pickle_before_and_after_first_read(self):
        for report in self.reports():
            expected = list(setdefault_oracle(
                parse_generator(report.arithmetic), report.window_half,
                report.primes_used[-1] + 1)[1].items())
            for read_first in (False, True):
                if read_first:
                    assert list(report.witnesses.items()) == expected
                for twin in (copy.copy(report), pickle.loads(pickle.dumps(report))):
                    assert type(twin) is type(report) and twin == report
                    assert list(twin.witnesses.items()) == expected

    def test_covered_builds_no_map(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("covered built the witness map")

        monkeypatch.setattr(coverage, "_mark_progression", refuse)
        for report in self.reports():
            window = set(range(-report.window_half, report.window_half + 1))
            assert report.covered == window - set(report.residual)

    def test_concurrent_first_reads_agree(self):
        expected = setdefault_oracle(ArithProg(2, 1), 80, 300)[1]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                report = seq_residual_set(ArithProg(2, 1), 80, 300)
                barrier = threading.Barrier(4)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    seen.append(report.witnesses)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == 4
                assert all(witnesses is seen[0] for witnesses in seen)
                assert list(seen[0].items()) == list(expected.items())
        finally:
            sys.setswitchinterval(switch)
