"""Orbits of the generalized Collatz map, fixed points, Goldbach scans."""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from karith import collatz
from karith import (
    DomainError,
    GoldbachReport,
    OddOrbitFate,
    OrbitKind,
    OrbitOutcome,
    collatz_step,
    fixed_points,
    goldbach_scan,
    is_k_prime,
    k_primes_below,
    k_product,
    odd_k_classification,
    orbit,
    orbit_length_scan,
    product_parity_set,
    two_divides,
)

ORBIT_17_2 = (17, 52, 26, 13, 40, 20, 10, 5, 16, 8, 4, 2, 1, 4)
ORBIT_17_6 = (17, 64, 30, 13, 52, 24, 10, 3, 22, 9, 40, 18, 7, 34,
              15, 58, 27, 94, 45, 148, 72, 34)
PREFIX_17_1 = (17, 9, 5, 3, 2, 4, 10, 28, 82, 244, 730, 2188, 6562,
               19684, 59050, 177148)
PREFIX_17_5 = (17, 7, 2, 16, 58, 184, 562, 1696, 5098, 15304, 45922,
               137776, 413338)
PREFIX_17_17 = (17, 1, -7, -11, -13, -14, 4, 58, 220, 706, 2164, 6538,
                19660, 59026, 177124)


class TestStep:
    def test_known_values(self):
        assert collatz_step(17, 2) == 52
        assert collatz_step(17, 6) == 64

    def test_divisibility_parity_flips_for_odd_k(self):
        # even k: evens halve; odd k: odds halve
        assert two_divides(10, 2) and not two_divides(7, 2)
        assert two_divides(7, 3) and not two_divides(10, 3)

    def test_halving_fixed_point(self):
        for k in range(-21, 22, 2):
            assert collatz_step(2 - k, k) == 2 - k


class TestOrbit:
    def test_usual_17_orbit(self):
        outcome = orbit(17, 2, 500_000, 10**6)
        assert outcome.trajectory == ORBIT_17_2
        assert outcome.kind == OrbitKind.CYCLE
        assert outcome.ns == 13
        assert outcome.pre_period == 10
        assert outcome.cycle_length == 3
        assert outcome.cycle_entry == 4

    def test_17_orbit_with_difference_6(self):
        outcome = orbit(17, 6, 500_000, 10**6)
        assert outcome.trajectory == ORBIT_17_6
        assert outcome.ns == 21
        assert outcome.cycle_length == 8
        assert outcome.cycle_entry == 34
        assert outcome.pre_period == 13

    def test_17_orbit_with_difference_1700(self):
        outcome = orbit(17, 1700, magnitude_bound=5_000_000)
        assert outcome.kind == OrbitKind.CYCLE
        assert outcome.ns == 1154
        assert outcome.cycle_length == 1124
        assert outcome.pre_period == 30
        assert outcome.cycle_entry == 3730
        assert outcome.trajectory[:4] == (17, 5146, 1724, 13)

    @pytest.mark.parametrize(
        "k,prefix", [(1, PREFIX_17_1), (5, PREFIX_17_5), (17, PREFIX_17_17)]
    )
    def test_divergent_17_orbits(self, k, prefix):
        outcome = orbit(17, k, 500_000, 10**6)
        assert outcome.kind == OrbitKind.MAGNITUDE_EXCEEDED
        assert outcome.trajectory == prefix
        assert outcome.ns is None
        assert outcome.bound == 500_000

    def test_step_consistency(self):
        for n, k in [(17, 2), (17, 6), (17, 1700), (17, 1), (1, 2), (-3, 3)]:
            outcome = orbit(n, k, 5_000_000, 10**6)
            for a, b in zip(outcome.trajectory, outcome.trajectory[1:]):
                assert collatz_step(a, k) == b

    def test_cycle_minimality_and_closure(self):
        for n, k in [(17, 2), (17, 6), (17, 1700), (17, 40)]:
            outcome = orbit(n, k, 5_000_000, 10**6)
            assert outcome.kind == OrbitKind.CYCLE
            value = outcome.cycle_entry
            seen_period = None
            for step in range(1, outcome.cycle_length + 1):
                value = collatz_step(value, k)
                if value == outcome.cycle_entry:
                    seen_period = step
                    break
            assert seen_period == outcome.cycle_length

    def test_trivial_orbit(self):
        outcome = orbit(1, 2, 500_000, 10**6)
        assert outcome.trajectory == (1, 4, 2, 1)
        assert outcome.ns == 3

    def test_fixed_point_outcome(self):
        outcome = orbit(-1, 3, 500_000, 10**6)
        assert outcome.kind == OrbitKind.FIXED_POINT
        assert outcome.fixed_value == -1
        assert outcome.trajectory == (-1, -1)
        assert outcome.ns == 1

    def test_orbit_reaching_a_fixed_point_is_not_a_cycle(self):
        outcome = orbit(-3, 3, 500_000, 10**6)
        assert outcome.kind == OrbitKind.FIXED_POINT
        assert outcome.fixed_value == -2
        assert outcome.trajectory == (-3, -2, -2)

    def test_step_limit(self):
        outcome = orbit(17, 2, 500_000, step_limit=3)
        assert outcome.kind == OrbitKind.STEP_LIMIT
        assert outcome.steps == 3
        assert outcome.trajectory == (17, 52, 26, 13)

    def test_start_beyond_bound(self):
        outcome = orbit(10**7, 2, 500_000, 10**6)
        assert outcome.kind == OrbitKind.MAGNITUDE_EXCEEDED
        assert outcome.trajectory == ()

    def test_bound_below_one_refused(self):
        # Not an empty MAGNITUDE_EXCEEDED outcome.
        with pytest.raises(DomainError, match="magnitude bound"):
            orbit(17, 2, 0)
        with pytest.raises(DomainError, match="magnitude bound"):
            orbit_length_scan(17, [2], -5)
        with pytest.raises(DomainError, match="magnitude bound"):
            orbit_length_scan(17, [], -5)  # refused before any k is walked

    def test_negative_step_limit_refused(self):
        # Not a STEP_LIMIT outcome that contradicts its limit.
        with pytest.raises(DomainError, match="step limit"):
            orbit(17, 2, 100, -1)
        with pytest.raises(DomainError, match="step limit"):
            orbit_length_scan(17, [2], 100, -1)
        with pytest.raises(DomainError, match="step limit"):
            orbit_length_scan(17, [], 100, -1)

    def test_least_limits_accepted(self):
        outcome = orbit(0, 2, 1, 0)
        assert outcome.kind == OrbitKind.STEP_LIMIT
        assert outcome.trajectory == (0,)
        assert outcome.steps == 0


def walk(n, k, bound, step_limit):
    """The orbit by definition: iterate collatz_step, record, look back."""
    trajectory = []
    index = {}
    current = n
    while abs(current) < bound:
        trajectory.append(current)
        if current in index:
            first = index[current]
            period = len(trajectory) - 1 - first
            if period == 1:
                return OrbitOutcome(tuple(trajectory), OrbitKind.FIXED_POINT,
                                    pre_period=first, cycle_length=1,
                                    fixed_value=current)
            return OrbitOutcome(tuple(trajectory), OrbitKind.CYCLE,
                                pre_period=first, cycle_length=period,
                                cycle_entry=current)
        index[current] = len(trajectory) - 1
        if len(trajectory) - 1 == step_limit:
            return OrbitOutcome(tuple(trajectory), OrbitKind.STEP_LIMIT,
                                steps=step_limit)
        current = collatz_step(current, k)
    return OrbitOutcome(tuple(trajectory), OrbitKind.MAGNITUDE_EXCEEDED,
                        bound=bound)


class TestOrbitAgainstStepOracle:
    """orbit steps by the closed form; collatz_step by the definitions."""

    def test_grid(self):
        kinds = set()
        for bound, steps in ((5_000_000, 10**6), (1000, 7), (50, 10**6)):
            for k in range(-20, 21):
                for n in range(-60, 61):
                    outcome = orbit(n, k, bound, steps)
                    assert outcome == walk(n, k, bound, steps), (n, k, bound, steps)
                    kinds.add(outcome.kind)
        assert kinds == set(OrbitKind)

    def test_long_even_k_orbits(self):
        for k in range(2, 2001, 2):
            assert orbit(17, k, 5_000_000) == walk(17, k, 5_000_000, 10**6), k


class TestOddKFixedPoints:
    def test_product_branch_identity(self):
        # the triple-and-add-one branch fixes (5 - 3k)/2 for every k
        for k in range(-21, 22, 2):
            v = (5 - 3 * k) // 2
            assert k_product(v, 3, k) + 1 == v

    def test_even_exceptional_value_is_a_map_fixed_point(self):
        for k in range(-21, 22, 2):
            v = (5 - 3 * k) // 2
            if v % 2 == 0:
                assert k % 4 == 3
                assert collatz_step(v, k) == v

    def test_odd_exceptional_value_takes_the_halving_branch(self):
        # k = 1 mod 4 leaves (5 - 3k)/2 odd; the actual map moves it
        assert collatz_step(-5, 5) == -4
        assert collatz_step(-11, 9) == -9

    def test_fixed_point_sets(self):
        assert fixed_points(3) == [-2, -1]
        assert fixed_points(7) == [-8, -5]
        assert fixed_points(5) == [-3]
        assert fixed_points(1) == [1]
        assert fixed_points(-1) == [3, 4]
        with pytest.raises(DomainError):
            fixed_points(2)

    def test_fixed_point_sets_are_exactly_the_fixed_values(self):
        for k in range(-21, 22, 2):
            expected = set(fixed_points(k))
            found = {n for n in range(-200, 201) if collatz_step(n, k) == n}
            assert found == expected, k


def doubling_chain_fate(n, k):
    """The fixed-point rule for odd k stated as halving preimages: 2 - k, or
    (2 - k) + 2**j * (1 - k) / 2 for some j >= 0 when (5 - 3k)/2 is even."""
    if n == 2 - k:
        return OddOrbitFate.FIXED_POINT
    if (5 - 3 * k) // 2 % 2:
        return OddOrbitFate.DIVERGES
    q, r = divmod(n - (2 - k), (1 - k) // 2)
    chain = r == 0 and q >= 1 and q & (q - 1) == 0
    return OddOrbitFate.FIXED_POINT if chain else OddOrbitFate.DIVERGES


class TestOddKClassification:
    def test_halving_fixed_points(self):
        for k in range(-5, 10, 2):
            assert odd_k_classification(2 - k, k) == OddOrbitFate.FIXED_POINT

    def test_even_exceptional_point(self):
        assert odd_k_classification(-2, 3) == OddOrbitFate.FIXED_POINT

    def test_divergence(self):
        assert odd_k_classification(17, 5) == OddOrbitFate.DIVERGES

    def test_chain_into_even_fixed_point(self):
        for n in (-3, -5, -9, -17, -33):
            assert odd_k_classification(n, 3) == OddOrbitFate.FIXED_POINT
        assert odd_k_classification(-65, 3) == OddOrbitFate.FIXED_POINT
        assert odd_k_classification(-7, 3) == OddOrbitFate.DIVERGES

    def test_even_k_rejected(self):
        with pytest.raises(DomainError):
            odd_k_classification(5, 2)

    def test_agrees_with_the_doubling_chain(self):
        for k in range(-101, 102, 2):
            for n in range(-2000, 2001):
                assert odd_k_classification(n, k) == doubling_chain_fate(n, k), (n, k)

    def test_long_doubling_chains_reach_the_even_fixed_point(self):
        for k in (-13, -5, 3, 7, 11, 10**30 + 3):
            assert (5 - 3 * k) // 2 % 2 == 0
            for j in range(61):
                n = (2 - k) + 2**j * ((1 - k) // 2)
                assert odd_k_classification(n, k) == OddOrbitFate.FIXED_POINT, (k, j)
                assert odd_k_classification(n + 2, k) == doubling_chain_fate(n + 2, k)

    @pytest.mark.parametrize("k", [-5, -3, -1, 1, 3, 5, 7, 9, 17])
    def test_agreement_with_orbits(self, k):
        for n in range(-50, 51):
            fate = odd_k_classification(n, k)
            outcome = orbit(n, k, 500_000, 10**5)
            if fate == OddOrbitFate.FIXED_POINT:
                assert outcome.kind == OrbitKind.FIXED_POINT, (n, k)
            else:
                assert outcome.kind in (
                    OrbitKind.MAGNITUDE_EXCEEDED, OrbitKind.STEP_LIMIT
                ), (n, k)


class TestScan:
    def test_known_rows_present(self):
        rows = orbit_length_scan(17, list(range(2, 101, 2)))
        table = {k: (ns, kind) for k, ns, kind in rows}
        assert table[2] == (13, "cycle")
        assert table[6] == (21, "cycle")
        assert len(rows) == 50

    def test_divergence_marker(self):
        rows = orbit_length_scan(17, [1])
        assert rows == [(1, None, "magnitude_exceeded")]

    def test_hand_iterated_row(self):
        rows = orbit_length_scan(1, [2])
        assert rows == [(2, 3, "cycle")]

    def test_cycle_entered_at_an_even_value(self):
        # -28, -14, -7, -20, -10, -5, -14: the first odd repeat is -7, but
        # the loop starts one step earlier, at the even -14
        outcome = walk(-28, 2, 500_000, 10**6)
        assert (outcome.pre_period, outcome.cycle_entry) == (1, -14)
        assert orbit_length_scan(-28, [2]) == [(2, 6, "cycle")]

    def test_zero_reached_by_tripling(self):
        # m = c + k - 2 runs -1, 0, 0: c = -3, -2, -2
        assert orbit_length_scan(-3, [4]) == [(4, 2, "fixed_point")]

    def test_least_limits(self):
        assert orbit_length_scan(0, [2], 1, 0) == [(2, None, "step_limit")]


def orbit_row(n, k, bound, step_limit):
    outcome = orbit(n, k, bound, step_limit)
    return (k, outcome.ns, outcome.kind.value)


class TestScanAgainstOrbit:
    """orbit_length_scan jumps halving runs; orbit walks every step."""

    def test_grid(self):
        ks = list(range(-20, 21))
        for bound, steps in ((5_000_000, 10**6), (1000, 7), (50, 10**6)):
            for n in range(-60, 61):
                assert orbit_length_scan(n, ks, bound, steps) == [
                    orbit_row(n, k, bound, steps) for k in ks], (n, bound, steps)

    def test_least_bounds_and_step_limits(self):
        ks = list(range(-8, 9))
        for bound in (1, 2, 3):
            for steps in (0, 1, 2, 3):
                for n in range(-12, 13):
                    assert orbit_length_scan(n, ks, bound, steps) == [
                        orbit_row(n, k, bound, steps) for k in ks], (n, bound, steps)

    def test_long_even_k_orbits(self):
        ks = list(range(2, 2001, 2))
        assert orbit_length_scan(17, ks, 5_000_000) == [
            orbit_row(17, k, 5_000_000, 10**6) for k in ks]

    @given(n=st.integers(-10**4, 10**4), k=st.integers(-3000, 3000),
           bound=st.integers(1, 10**6), step_limit=st.integers(0, 2000))
    def test_property(self, n, k, bound, step_limit):
        assert orbit_length_scan(n, [k], bound, step_limit) == [
            orbit_row(n, k, bound, step_limit)]


def catalog_size(catalog):
    """Loop and tail entries: what the catalog counts against its cap."""
    return sum(map(len, catalog.loops.values()))


def catalog_entry(v, q):
    """The catalog entry of the odd value v of m -> m/2, 3m + q, read off
    `orbit` from v: (t_v, p, reach) on a loop, where t_v counts the halvings
    into v, and (p - ns, p, reach) off it."""
    k = q + 1
    outcome = orbit(v - (k - 2), k, 10**12, 10**6)
    p, ns = outcome.cycle_length, outcome.ns
    reach = max(map(abs, outcome.trajectory))
    if outcome.pre_period:
        return (p - ns, p, reach)
    halvings = 0
    while (outcome.trajectory[p - 1 - halvings] + k - 2) % 2 == 0:
        halvings += 1
    return (halvings, p, reach)


def assert_catalog_sound(catalog):
    """Every entry is what `orbit` gives for its value, and every loop the
    catalog lists is there with all its odd values."""
    for q, entries in catalog.loops.items():
        for v, entry in entries.items():
            assert entry == catalog_entry(v, q), (q, v)
            if entry[0] >= 0:
                shift = q - 1
                for c in orbit(v - shift, q + 1, 10**12, 10**6).trajectory:
                    if (c + shift) & 1:
                        assert entries.get(c + shift, (-1,))[0] >= 0, (q, v, c + shift)


class TestLoopCatalog:
    """Even-k scans stop at a loop the process has already closed or at an
    orbit tail into one; the rows must not depend on what the catalog
    holds, the k order or the threads."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(collatz, "_catalog", collatz._LoopCatalog())

    def test_first_visit_admits_27s_loop_and_tails(self):
        # k = 2 is the usual map: its loop 1, 4, 2, 1 has one odd value
        assert orbit_length_scan(27, [2]) == [orbit_row(27, 2, 500_000, 10**6)]
        assert list(collatz._catalog.loops) == [1]
        loops = collatz._catalog.loops[1]
        # 1 is entered from 4 by two halvings; the loop has 3 steps and
        # reaches |c| = 4
        assert loops[1] == (2, 3, 4)
        # the tail 5, 16, 8, 4, 2, 1, 4 has 6 steps and reaches 16
        assert loops[5] == (-3, 3, 16)
        # 27's walk passed every other odd value of its orbit off the loop
        assert set(loops) == {v for v in orbit(27, 2).trajectory if v & 1}
        assert all(entry == catalog_entry(v, 1) for v, entry in loops.items())
        assert collatz._catalog.size == catalog_size(collatz._catalog) == len(loops)
        # the second visit hits 27 at once and has nothing to add
        assert orbit_length_scan(27, [2]) == [orbit_row(27, 2, 500_000, 10**6)]
        assert collatz._catalog.loops == {1: loops}

    def test_first_visits_build_each_maps_entries_once(self, monkeypatch):
        # an `orbit --scan` child visits each q once: every walk that closes
        # its loop builds that loop's entries and its tails, once
        built = Counter()

        def counted(name, build):
            def entries(*args):
                built[name] += 1
                return build(*args)
            return entries

        for name in ("_loop_entries", "_tail_entries"):
            monkeypatch.setattr(collatz, name, counted(name, getattr(collatz, name)))
        ks = list(range(2, 402, 2))
        rows = orbit_length_scan(27, ks, 5_000_000)
        assert rows == [orbit_row(27, k, 5_000_000, 10**6) for k in ks]
        cycles = {k - 1 for k, _, kind in rows if kind == "cycle"}
        assert set(collatz._catalog.loops) == cycles
        assert built == {"_loop_entries": len(cycles), "_tail_entries": len(cycles)}
        assert collatz._catalog.size == catalog_size(collatz._catalog)
        assert_catalog_sound(collatz._catalog)

    def test_hit_ends_the_walk_only_inside_the_bound(self):
        collatz._catalog.admit(1, {1: (2, 99, 4)}, {})  # a false period, to see it used
        assert orbit_length_scan(1, [2], 5) == [(2, 99, "cycle")]
        collatz._catalog.loops[1] = {1: (2, 99, 5)}  # reaches the bound: walk on
        assert orbit_length_scan(1, [2], 5) == [orbit_row(1, 2, 5, 10**6)] == [(2, 3, "cycle")]

    def test_tail_hit_ends_the_walk_only_inside_the_bound(self):
        orbit_length_scan(27, [2])  # admits 27's tails, 5 among them
        loops = collatz._catalog.loops
        assert loops[1][5] == (-3, 3, 16)
        # 10, 5, 16, ...: 5 reaches the bound 16, so the walk goes on past it
        assert orbit_length_scan(10, [2], 16) == [orbit_row(10, 2, 16, 10**6)] == [
            (2, None, "magnitude_exceeded")]
        loops[1] = {**loops[1], 5: (-96, 3, 16)}  # a false rest of 99, to see it used
        assert orbit_length_scan(10, [2], 17) == [(2, 100, "cycle")]
        loops[1] = {**loops[1], 5: (-96, 3, 17)}  # reaches the bound: walk on
        assert orbit_length_scan(10, [2], 17) == [orbit_row(10, 2, 17, 10**6)] == [(2, 7, "cycle")]

    def test_tail_hit_past_the_step_limit(self):
        orbit_length_scan(27, [2])
        # 10, 5, 16, 8, 4, 2, 1, 4: the hit at index 1 has 6 steps to go
        for step_limit, row in ((6, (2, None, "step_limit")), (7, (2, 7, "cycle"))):
            assert orbit_length_scan(10, [2], 500_000, step_limit) == [
                orbit_row(10, 2, 500_000, step_limit)] == [row]
        loops = collatz._catalog.loops
        loops[1] = {**loops[1], 5: (-96, 3, 16)}  # a false rest of 99: i + rest = 100
        assert orbit_length_scan(10, [2], 500_000, 99) == [(2, None, "step_limit")]
        assert orbit_length_scan(10, [2], 500_000, 100) == [(2, 100, "cycle")]

    def test_cold_walk_step_limit_on_the_usual_18_cycle(self):
        # -55 lies on the usual map's 18-cycle through -17: closing it takes
        # 18 steps, so a step limit of 17 stops the walk first
        assert orbit_length_scan(-55, [2], 10**6, 17) == [(2, None, "step_limit")]
        assert orbit_length_scan(-55, [2], 10**6, 18) == [(2, 18, "cycle")]
        assert orbit_row(-55, 2, 10**6, 17) == (2, None, "step_limit")
        assert orbit_row(-55, 2, 10**6, 18) == (2, 18, "cycle")

    @given(n=st.integers(-300, 300), warm_n=st.integers(-300, 300),
           ks=st.lists(st.integers(-60, 260), min_size=1, max_size=6),
           bound=st.integers(1, 10**7), extra=st.integers(1, 10**7),
           step_limit=st.integers(0, 400), warm=st.booleans(), seed=st.integers(0, 2**32))
    def test_rows_equal_orbit_whatever_the_catalog_holds(
            self, n, warm_n, ks, bound, extra, step_limit, warm, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(collatz, "_catalog", collatz._LoopCatalog())
            if warm:  # twice: the first scan admits loops and tails, some of
                # them reaching past the checked bound, and the second hits them
                for _ in range(2):
                    orbit_length_scan(warm_n, ks, bound + extra)
            order = ks * 2
            random.Random(seed).shuffle(order)
            ends = {orbit_row(n, k, bound, 10**6)[1] for k in ks} - {None}
            for limit in {step_limit, *(ns + d for ns in ends for d in (-1, 0))}:
                assert orbit_length_scan(n, order, bound, limit) == [
                    orbit_row(n, k, bound, limit) for k in order], limit

    def test_rows_equal_orbit_from_four_threads(self):
        scan_from_four_threads()

    def test_rows_equal_orbit_from_four_threads_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(collatz, "_LOOP_CAP", 40)
        scan_from_four_threads()
        assert collatz._catalog.size == 40

    def test_cap_holds(self, monkeypatch):
        monkeypatch.setattr(collatz, "_LOOP_CAP", 40)
        ks = list(range(2, 42, 2))
        for n in (27, 7, 97, 27, -5, 55):
            assert orbit_length_scan(n, ks) == [orbit_row(n, k, 500_000, 10**6) for k in ks]
        assert collatz._catalog.size == catalog_size(collatz._catalog) <= 40
        assert any(collatz._catalog.loops.values())
        assert_catalog_sound(collatz._catalog)

    def test_repeated_scan_over_more_maps_than_the_cap_holds(self, monkeypatch):
        monkeypatch.setattr(collatz, "_LOOP_CAP", 60)
        ks = list(range(2, 202, 2))  # 100 maps
        expected = [orbit_row(27, k, 5_000_000, 10**6) for k in ks]
        for _ in range(3):
            assert orbit_length_scan(27, ks, 5_000_000) == expected
        assert collatz._catalog.size == catalog_size(collatz._catalog) == 60
        # loop entries have t_v >= 0, tail entries p - rest < 0
        assert any(t >= 0 for entries in collatz._catalog.loops.values()
                   for t, _, _ in entries.values())
        assert_catalog_sound(collatz._catalog)

    def test_a_loop_is_admitted_whole_and_tails_take_the_room_left(self, monkeypatch):
        # -197's walk passes six odd values, -197, -295, -221, -331, -31 and
        # -23, before the usual map's 18-cycle through -17, which has seven:
        # at cap 5 the loop does not fit and five tails take the room, at cap
        # 10 it does and three tails take the room left
        cycle = {v for v in orbit(-17, 2).trajectory if v & 1}
        built = []
        loop_entries = collatz._loop_entries
        monkeypatch.setattr(collatz, "_loop_entries",
                            lambda values, *rest: built.append(len(values))
                            or loop_entries(values, *rest))
        for cap, kept, loops_built in ((5, {-23, -31, -331, -221, -295}, []),
                                       (10, cycle | {-23, -31, -331}, [7])):
            monkeypatch.setattr(collatz, "_LOOP_CAP", cap)
            monkeypatch.setattr(collatz, "_catalog", collatz._LoopCatalog())
            built.clear()
            for _ in range(2):
                assert orbit_length_scan(-197, [2]) == [orbit_row(-197, 2, 500_000, 10**6)]
            # the tails nearest the loop take the room it leaves; the second
            # scan hits the catalog, full, and changes nothing
            assert collatz._catalog.loops == {1: {v: catalog_entry(v, 1) for v in kept}}
            assert collatz._catalog.size == cap
            assert built == loops_built  # a loop that cannot fit is not built

    def test_full_catalog_builds_no_entries_it_would_refuse(self, monkeypatch):
        monkeypatch.setattr(collatz, "_LOOP_CAP", 40)
        ks = list(range(2, 42, 2))
        for n in (27, 27, 7, 97):  # loop and tail values of 20 maps fill the cap
            orbit_length_scan(n, ks)
        assert collatz._catalog.size == catalog_size(collatz._catalog) == 40
        assert any(collatz._catalog.loops.values())
        offers = []

        def entries(values, *rest):
            offers.append((collatz._catalog.size, len(values)))
            return loop_entries(values, *rest)

        loop_entries = collatz._loop_entries
        monkeypatch.setattr(collatz, "_loop_entries", entries)
        for n in (27, -5, 55):  # each closes loops that no longer fit
            assert orbit_length_scan(n, ks) == [orbit_row(n, k, 500_000, 10**6) for k in ks]
        assert all(size + length <= 40 for size, length in offers), offers
        assert collatz._catalog.size == 40

    def test_full_catalog_builds_no_tail_entries(self, monkeypatch):
        monkeypatch.setattr(collatz, "_LOOP_CAP", 40)
        ks = list(range(2, 42, 2))
        for n in (27, 27):
            orbit_length_scan(n, ks)
        assert collatz._catalog.size == catalog_size(collatz._catalog) == 40
        calls = []

        def entries(*args):
            calls.append(args)
            return tail_entries(*args)

        tail_entries = collatz._tail_entries
        monkeypatch.setattr(collatz, "_tail_entries", entries)
        for n in (7, 97, -5, 55):  # walks that end in a loop or hit an entry
            assert orbit_length_scan(n, ks) == [orbit_row(n, k, 500_000, 10**6) for k in ks]
        assert calls == []
        assert_catalog_sound(collatz._catalog)


def scan_from_four_threads():
    """Four threads scan shuffled even and odd k windows into one catalog;
    each must get `orbit`'s rows, and the catalog must stay sound."""
    ks = list(range(-40, 241))
    plans = [(n, random.Random(n).sample(ks * 2, 2 * len(ks))) for n in (27, -5, 97, 3)]
    expected = [[orbit_row(n, k, 5_000_000, 10**6) for k in order] for n, order in plans]
    results = [None] * len(plans)
    start = threading.Barrier(len(plans))

    def run(i):
        start.wait()
        n, order = plans[i]
        results[i] = orbit_length_scan(n, order, 5_000_000)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    # a lost update to the count or to a q's loops would break this
    assert collatz._catalog.size == catalog_size(collatz._catalog)
    assert any(collatz._catalog.loops.values())
    assert_catalog_sound(collatz._catalog)


class TestGoldbach:
    def test_powers_of_two_fail_at_14(self):
        report = goldbach_scan(1, 20)
        assert report.counterexamples == (14,)
        assert report.least_counterexample == 14

    def test_usual_arithmetic_clear_to_ten_thousand(self):
        report = goldbach_scan(2, 10_000)
        assert report.counterexamples == ()

    def test_even_differences_share_the_report(self):
        r2 = goldbach_scan(2, 10_000, record_witnesses=True)
        r4 = goldbach_scan(4, 10_000, record_witnesses=True)
        assert r2.counterexamples == r4.counterexamples == ()
        assert r2.decompositions == r4.decompositions

    def test_counterexample_set_is_constant_across_even_k(self):
        reference = goldbach_scan(2, 500).counterexamples
        for k in (-4, 0, 6, 10):
            assert goldbach_scan(k, 500).counterexamples == reference

    def test_even_k_witnesses_are_k_prime_by_definition(self):
        from karith import is_k_prime

        report = goldbach_scan(4, 60, record_witnesses=True)
        for h, (p1, p2) in report.decompositions.items():
            assert p1 + p2 == h
            assert is_k_prime(p1, 4) and is_k_prime(p2, 4)

    def test_witnesses_are_sound(self):
        report = goldbach_scan(1, 64, record_witnesses=True)
        assert report.decompositions is not None
        for h, (p1, p2) in report.decompositions.items():
            assert p1 + p2 == h
            assert p1 & (p1 - 1) == 0 and p2 & (p2 - 1) == 0

    def test_odd_k_counterexamples_match_brute_force(self):
        report = goldbach_scan(3, 200)
        powers = {2**s for s in range(1, 9)}
        brute = [
            h for h in range(6, 201, 2)
            if not any(p in powers and h - p in powers for p in range(2, h // 2 + 1))
        ]
        assert list(report.counterexamples) == brute

    def test_domain(self):
        with pytest.raises(DomainError):
            goldbach_scan(2, 4)

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_scan_matches_definitional_brute_force(self, k):
        # a target's witness is its first decomposition in ascending p1,
        # whatever the limit, so one brute force serves every limit
        primes = {p for p in range(2, 151) if is_k_prime(p, k)}
        witness = {
            h: next(((p, h - p) for p in range(2, h // 2 + 1)
                     if p in primes and h - p in primes), None)
            for h in range(6, 151, 2)
        }
        for limit in range(6, 151):
            report = goldbach_scan(k, limit, record_witnesses=True)
            targets = range(6, limit + 1, 2)
            assert report.counterexamples == tuple(h for h in targets if witness[h] is None)
            assert report.decompositions == {
                h: witness[h] for h in targets if witness[h] is not None}


def _candidate_loop_goldbach(k, limit):
    """Counterexamples and least-first witnesses by trying every k-prime
    p1 <= h / 2: the per-target search goldbach_scan ran before odd k became
    closed and even k a bitset sweep, kept as the oracle for both."""
    candidates = k_primes_below(limit + 1, k)
    members = set(candidates)
    counterexamples = []
    decompositions = {}
    for h in range(6, limit + 1, 2):
        found = None
        for p1 in candidates:
            if 2 * p1 > h:
                break
            if h - p1 in members:
                found = (p1, h - p1)
                break
        if found is None:
            counterexamples.append(h)
        else:
            decompositions[h] = found
    return tuple(counterexamples), decompositions


@pytest.mark.parametrize("k", range(-6, 8))
def test_closed_odd_k_goldbach_matches_the_candidate_loop(k):
    # odd k checks the closed form, even k the bitset sweep: at 64-bit word
    # edges, at 2**j +- 1 up to 2**14 + 1 and at one large limit
    limits = [6, 7, 8, 63, 64, 65, 100, 127, 128, 129, 20_000] + [
        2**j + e for j in range(3, 15) for e in (-1, 1)]
    for limit in limits:
        counterexamples, decompositions = _candidate_loop_goldbach(k, limit)
        report = goldbach_scan(k, limit, record_witnesses=True)
        assert report.counterexamples == counterexamples, limit
        assert report.decompositions == decompositions, limit
        assert list(report.decompositions) == list(decompositions)  # ascending targets
        assert goldbach_scan(k, limit) == GoldbachReport(k, limit, counterexamples)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on decimal int conversion before Python 3.11")
def test_goldbach_scan_converts_no_big_int_through_base_10():
    # the sweep's bitsets hold 20,000 bits, about 6,000 decimal digits
    expected = goldbach_scan(2, 20_000, record_witnesses=True)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert goldbach_scan(2, 20_000, record_witnesses=True) == expected
    finally:
        sys.set_int_max_str_digits(previous)


class TestParitySets:
    def test_even_differences_produce_even_values(self):
        for k in (0, 4):
            values = product_parity_set(k, range(-10, 11))
            assert all(v % 2 == 0 for v in values)

    def test_odd_differences_produce_odd_values(self):
        values = product_parity_set(3, range(-10, 11))
        assert all(v % 2 == 1 for v in values)

    def test_usual_arithmetic_doubles(self):
        assert product_parity_set(2, range(-3, 4)) == {-6, -4, -2, 0, 2, 4, 6}
