"""Acceptance suite: one check per release criterion, all exact.

Runs under pytest (one test per criterion) and as a script printing a
pass/fail line per criterion:

    python tests/test_acceptance.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from karith import (
    AlternatingOnes,
    ArithProg,
    Constant,
    FurstPattern,
    GeomProg,
    OrbitKind,
    Polynomial,
    UsualPrimes,
    ZeroOne,
    collatz_step,
    compare_prefix,
    cubes_sequence,
    exact_divisor_count_numbers,
    fixed_points,
    goldbach_scan,
    is_k_prime,
    k_divisors,
    k_divisors_by_scan,
    k_primes_below,
    k_product,
    k_quotient,
    orbit,
    parse_bfile,
    polygonal,
    residual_set,
    seq_divisors,
    seq_primes_below,
    seq_product,
    seq_quotient,
    seq_residual_set,
    squares_sequence,
    t_peano_product,
)

OEIS = Path(__file__).resolve().parent / "fixtures" / "oeis"


def criterion_01_divisor_fixtures():
    """k_divisors reproduces the recorded divisor sets exactly."""
    expected = {
        (20, 3): (1, 5, 8, 40),
        (40, 4): (1, 2, 4, 5, 8, 10, 20, 40),
        (40, 3): (1, 5, 16, 80),
        (12, 3): (1, 3, 8, 24),
    }
    for (a, k), divisors in expected.items():
        assert k_divisors(a, k).divisors == divisors, (a, k)


def criterion_02_prime_fixtures():
    """Prime censuses below 85 for differences 2, 4 and 1."""
    usual = k_primes_below(85, 2)
    assert len(usual) == 23
    assert usual[0] == 2 and usual[-1] == 83
    assert k_primes_below(85, 4) == usual
    assert k_primes_below(85, 1) == [2, 4, 8, 16, 32, 64]


def criterion_03_divisor_oracle_equivalence():
    """Fast-path divisors equal the quotient scan on the full grid, and the
    scan over (2|a|, 6|a|] is empty."""
    for a in range(-200, 201):
        if a == 0:
            continue
        bound = 2 * abs(a)
        guard = 6 * abs(a)
        for k in range(-10, 11):
            fast = k_divisors(a, k).divisors
            scanned = k_divisors_by_scan(a, k, bound)
            assert list(fast) == scanned, (a, k)
            for d in range(bound + 1, guard + 1):
                num = 2 * a + d * (d - 1) * (2 - k)
                assert num % (2 * d) != 0, (a, k, d)


def criterion_04_algebraic_identities():
    """Recursive-product equivalence, the five relating identities, and the
    polygonal closed form, on their stated grids."""
    for m in range(-50, 51):
        for n in range(1, 51):
            for k in range(-10, 11):
                assert t_peano_product(m, n, k - 2) == k_product(m, n, k)
    import random

    rng = random.Random(20260808)
    for _ in range(1000):
        a, b, c, d = (rng.randint(-100, 100) for _ in range(4))
        k = rng.randint(-10, 10)
        mul = lambda x, y: k_product(x, y, k)
        assert mul(a, 1 - a) == mul(1 - a, a)
        assert (a - b) * (c + d) == mul(a, c) + mul(a, d) - mul(b, c) - mul(b, d)
        assert mul(a + b, a + b) == mul(a, a) + mul(b, b) + k * a * b
        assert (a - b) ** 2 == mul(a, a) + mul(b, b) - mul(b, a) - mul(a, b)
        assert mul(a, -b) == mul(k - 2 - a, b)
    assert k_product(k_product(2, 3, 1), 4, 1) == 6
    assert k_product(2, k_product(3, 4, 1), 1) == -3
    for n in range(1, 101):
        for sides in range(3, 13):
            assert polygonal(n, sides) == n * ((sides - 2) * n - (sides - 4)) // 2


def criterion_05_collatz_fixtures():
    """17-orbit fixtures: exact trajectories, step counts, cycle data."""
    o = orbit(17, 2, 500_000, 10**6)
    assert o.trajectory == (17, 52, 26, 13, 40, 20, 10, 5, 16, 8, 4, 2, 1, 4)
    assert o.ns == 13
    o = orbit(17, 6, 500_000, 10**6)
    assert o.ns == 21 and o.cycle_length == 8 and o.cycle_entry == 34
    started = time.monotonic()
    o = orbit(17, 1700, 5_000_000, 10**6)
    elapsed = time.monotonic() - started
    assert o.ns == 1154 and o.cycle_length == 1124
    assert elapsed < 5.0, f"17-orbit at k=1700 took {elapsed:.2f}s"
    prefixes = {
        1: (17, 9, 5, 3, 2, 4, 10, 28, 82, 244, 730, 2188, 6562),
        5: (17, 7, 2, 16, 58, 184, 562, 1696, 5098, 15304, 45922),
        17: (17, 1, -7, -11, -13, -14, 4, 58, 220, 706, 2164),
    }
    for k, prefix in prefixes.items():
        o = orbit(17, k, 500_000, 10**6)
        assert o.kind == OrbitKind.MAGNITUDE_EXCEEDED, k
        assert o.trajectory[: len(prefix)] == prefix, k


def criterion_06_odd_k_fixed_points():
    """Fixed-point identities for odd k, and no proper cycle from any start
    in [-50, 50] other than the fixed points themselves."""
    for k in range(-21, 22, 2):
        assert collatz_step(2 - k, k) == 2 - k
        v = (5 - 3 * k) // 2
        # the triple-and-add-one branch fixes v for every odd k; v is a fixed
        # point of the full map exactly when it is even (k = 3 mod 4), since
        # odd v takes the halving branch instead
        assert k_product(v, 3, k) + 1 == v
        if v % 2 == 0:
            assert collatz_step(v, k) == v
    for k in range(-21, 22, 2):
        skip = set(fixed_points(k))
        for n in range(-50, 51):
            if n in skip:
                continue
            outcome = orbit(n, k, 500_000, 10**5)
            assert outcome.kind != OrbitKind.CYCLE, (n, k)


def criterion_07_even_k_periodicity():
    """Every even difference in [2, 100] cycles from 17 at the stated bounds,
    with the known rows exact."""
    table = {}
    for k in range(2, 101, 2):
        outcome = orbit(17, k, 5_000_000, 10**6)
        assert outcome.kind == OrbitKind.CYCLE, (k, outcome.kind)
        table[k] = outcome.ns
    assert table[2] == 13
    assert table[6] == 21


def criterion_08_goldbach():
    """Power-of-two arithmetic fails at 14; usual and 4-arithmetic scans to
    ten thousand are clean and identical."""
    started = time.monotonic()
    assert goldbach_scan(1, 20).counterexamples == (14,)
    r2 = goldbach_scan(2, 10_000, record_witnesses=True)
    r4 = goldbach_scan(4, 10_000, record_witnesses=True)
    elapsed = time.monotonic() - started
    assert r2.counterexamples == () == r4.counterexamples
    assert r2.decompositions == r4.decompositions
    assert elapsed < 5.0, f"goldbach scans took {elapsed:.2f}s"


RECORDED_RESIDUAL_ROWS = {
    (1, 3): [0],
    (1, 1): [-26, -24, -22, -18, -14, -10, -8, -6, -2, 0,
             2, 6, 8, 10, 14, 18, 22, 24, 26, 30],
    (1, 2): list(range(-60, 61)),
    (2, 3): [-1, 1],
    (2, 1): [-16, -13, -12, -10, -9, -7, -4, -3, -1, 0,
             2, 5, 6, 8, 11, 14, 15, 17, 18, 20],
    (2, 2): [-11, -10, -9, -8, -6, -5, -4, -3, -2, -1,
             1, 2, 3, 4, 5, 6, 8, 9, 10, 11],
}


def criterion_09_coverage_residuals():
    """Residuals over the window [-200, 200] per parity, and the recorded
    residual rows of the six progression cases at window half-width 60 with
    primes below 200 (the recorded rows are contiguous excerpts, so each is
    compared as the slice between its endpoints)."""
    for k in (-6, -2, 0, 2, 4, 6):
        assert residual_set(k, 200).residual == (-1, 1), k
    for k in (-5, -1, 1, 3, 7):
        assert residual_set(k, 200).residual == (0,), k
    for (a, b), row in RECORDED_RESIDUAL_ROWS.items():
        residual = seq_residual_set(ArithProg(a, b), 60, 200).residual
        sliced = [x for x in residual if row[0] <= x <= row[-1]]
        assert sliced == row, (a, b)


SEQUENCE_FIXTURES = [
    (squares_sequence, ArithProg(0, 1), 10,
     [1, 2, 4, 8, 15, 26, 42, 64, 93, 130], "b000125.txt", 0),
    (squares_sequence, ArithProg(1, 1), 10,
     [1, 3, 7, 14, 25, 41, 63, 92, 129, 175], "b004006.txt", 1),
    (squares_sequence, GeomProg(1, 2), 10,
     [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023], "b000225.txt", 1),
    (squares_sequence, UsualPrimes(), 10,
     [1, 4, 10, 21, 39, 68, 110, 169, 247, 348], "b023538.txt", 1),
    (squares_sequence, AlternatingOnes(), 8,
     [1, 3, 4, 6, 7, 9, 10, 12], "b032766.txt", 1),
    (cubes_sequence, AlternatingOnes(), 10,
     [1, 5, 7, 14, 17, 27, 31, 44, 49, 65], "b105638.txt", 4),
    (squares_sequence, ZeroOne(), 11,
     [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36], "b002620.txt", 2),
    (cubes_sequence, ZeroOne(), 10,
     [1, 2, 7, 14, 29, 48, 79, 116, 169, 230], "b005998.txt", 0),
]

EXAMPLE_PRIME_CASES = [
    (ArithProg(1, 3), 100, None, [2, 4, 8, 16, 32, 64]),
    (ArithProg(1, 1), 100, None, [2, 6, 8, 18, 24, 32, 54, 72, 96]),
    (ArithProg(1, 2), 100, None, []),
    (ArithProg(2, 3), 85, None, "usual"),
    (ArithProg(2, 1), 100, None, [3, 9, 27, 81]),
    (ArithProg(2, 2), 100, None,
     [7, 13, 19, 21, 31, 37, 39, 43, 57, 61, 63, 67, 73, 79, 93, 97]),
    (Polynomial((1, 0, 5)), 400, 6,
     [2, 4, 6, 12, 18, 36, 54, 108, 162, 324]),
]


def criterion_10_sequence_fixtures():
    """Generated products/quotients/divisors, the prime censuses, and the
    square/cube prefixes against both the frozen expected values and the vendored
    b-files."""
    assert seq_product(5, 8, ArithProg(3, 4)) == 292
    assert seq_quotient(292, 8, ArithProg(3, 4)) == 5
    assert seq_divisors(20, ArithProg(1, 2)).divisors == (1, 3, 5, 8, 40, 120)
    for g, limit, factor, expected in EXAMPLE_PRIME_CASES:
        primes = seq_primes_below(limit, g, bound_factor=factor)
        if expected == "usual":
            assert primes == k_primes_below(limit, 2), g.spec()
        else:
            assert primes == expected, g.spec()
    fpattern_squares = squares_sequence(18, FurstPattern())
    assert fpattern_squares == [1, 3, 4, 5, 7, 8, 9, 10, 11, 13,
                                14, 15, 16, 17, 18, 19, 20, 21]
    for fn, g, count, expected, bfile, offset in SEQUENCE_FIXTURES:
        values = fn(count, g)
        assert values == expected, (g.spec(), fn.__name__)
        fixture = parse_bfile(OEIS / bfile)
        result = compare_prefix(values, fixture, offset=offset)
        assert result.matched, (bfile, result.detail)


def criterion_11_three_divisor_numbers():
    """Numbers below 250 with exactly three divisors in the odd-number
    arithmetic."""
    expected = [3, 4, 9, 12, 16, 27, 36, 48, 64, 81, 108, 144, 192, 243]
    assert exact_divisor_count_numbers(3, 250, ArithProg(1, 2)) == expected


def criterion_12_closed_form_and_reduction():
    """Cubic closed form equals the weighted sum on the stated grid, and the
    constant generator agrees with the k-arithmetic and with its own literal
    prefix sums everywhere they meet."""
    for a in range(-5, 6):
        for b in range(-5, 6):
            g = ArithProg(a, b)
            sums = g.prefix_sums()
            for n in range(1, 61):
                closed = (n * (n - 1) // 2) * a + (n * (n - 1) * (n - 2) // 6) * b
                assert sums.weighted(n) == closed, (a, b, n)
    for m in range(-30, 31, 3):
        for n in range(1, 61):
            assert seq_product(m, n, ArithProg(2, 5)) == (
                (m - n + 1) * n + (n * (n - 1) // 2) * 2
                + (n * (n - 1) * (n - 2) // 6) * 5
            )
    for k in range(-10, 11):
        g = Constant(k)
        for m in range(-15, 16, 5):
            for n in range(1, 25):
                literal = (m - n + 1) * n + g.prefix_sums().weighted(n)
                assert seq_product(m, n, g) == k_product(m, n, k) == literal
        for a in range(1, 60):
            assert list(seq_divisors(a, g).divisors) == list(k_divisors(a, k).divisors)
            for d in range(1, 2 * a + 1):
                sq = seq_quotient(a, d, g)
                kq = k_quotient(a, d, k)
                if isinstance(sq, int) or isinstance(kq, int):
                    assert sq == kq, (a, d, k)
        assert seq_primes_below(60, g) == k_primes_below(60, k)


CRITERIA = [
    ("1 divisor fixtures", criterion_01_divisor_fixtures),
    ("2 prime fixtures", criterion_02_prime_fixtures),
    ("3 divisor oracle equivalence", criterion_03_divisor_oracle_equivalence),
    ("4 algebraic identities", criterion_04_algebraic_identities),
    ("5 collatz fixtures", criterion_05_collatz_fixtures),
    ("6 odd-k fixed points", criterion_06_odd_k_fixed_points),
    ("7 even-k periodicity", criterion_07_even_k_periodicity),
    ("8 goldbach", criterion_08_goldbach),
    ("9 coverage residuals", criterion_09_coverage_residuals),
    ("10 sequence fixtures", criterion_10_sequence_fixtures),
    ("11 three-divisor numbers", criterion_11_three_divisor_numbers),
    ("12 closed form and reduction", criterion_12_closed_form_and_reduction),
]


def _run(label, fn):
    started = time.monotonic()
    try:
        fn()
    except AssertionError:
        print(f"FAIL  criterion {label}")
        raise
    print(f"PASS  criterion {label}  ({time.monotonic() - started:.2f}s)")


def test_criterion_01(): _run("1 divisor fixtures", criterion_01_divisor_fixtures)
def test_criterion_02(): _run("2 prime fixtures", criterion_02_prime_fixtures)
def test_criterion_03(): _run("3 divisor oracle equivalence", criterion_03_divisor_oracle_equivalence)
def test_criterion_04(): _run("4 algebraic identities", criterion_04_algebraic_identities)
def test_criterion_05(): _run("5 collatz fixtures", criterion_05_collatz_fixtures)
def test_criterion_06(): _run("6 odd-k fixed points", criterion_06_odd_k_fixed_points)
def test_criterion_07(): _run("7 even-k periodicity", criterion_07_even_k_periodicity)
def test_criterion_08(): _run("8 goldbach", criterion_08_goldbach)
def test_criterion_09(): _run("9 coverage residuals", criterion_09_coverage_residuals)
def test_criterion_10(): _run("10 sequence fixtures", criterion_10_sequence_fixtures)
def test_criterion_11(): _run("11 three-divisor numbers", criterion_11_three_divisor_numbers)
def test_criterion_12(): _run("12 closed form and reduction", criterion_12_closed_form_and_reduction)


def main() -> int:
    failures = 0
    for label, fn in CRITERIA:
        try:
            _run(label, fn)
        except AssertionError as exc:
            failures += 1
            print(f"      {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
