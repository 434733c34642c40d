"""Collatz-style orbits in the k-arithmetic, plus Goldbach-style scanners.

The map halves (in the k-arithmetic sense) whenever 2 divides the current
value in that arithmetic, and otherwise applies the k-product by 3 and adds
one.  For even k this is the usual Collatz shape; for odd k the parity of
divisibility flips and almost every orbit diverges.

Both branches have a closed form for any integer k.  The k-quotient of c
by 2 is an integer exactly when d = c - (k - 2) is even, and then it is
d / 2; the k-product of c by 3, plus one, is 3c + 3k - 5.  With
m = c + k - 2 the map becomes m -> m / 2 for even m and m -> 3m + (k - 1)
for odd m: the 3x + q family with q = k - 1.  For odd k, q is even, so an
odd m stays odd under tripling and keeps growing; this is why almost every
odd-k orbit diverges.  `collatz_step` keeps the definitional form and is
the oracle for the closed form that `orbit` iterates.

`orbit_length_scan` keeps only (ns, kind) per k, so it walks m one halving
run at a time: a run m, m/2, ..., m/2**t is one shift, checked against the
bound at its two ends, and only odd values enter the repeat dict.  If the
first odd value to repeat is seen at f and again at j, with g_f and g_j the
indices of the odd values before each, the period is p = j - f and the loop
starts at mu = max(g_f + 1, g_j - p + 1) (see `_orbit_end`).  `orbit` must
record every value anyway, so it stays per-step: walking the runs first and
then replaying the trajectory took 460 us against 427 us per-step for
orbit(17, 1700, 5_000_000) (medians of 25 interleaved timings, 2-core
machine, Python 3.11.7).

Every odd-q orbit that stays bounded ends in one of the map's few loops
(Lagarias's rational cycles of 3x + 1), so the scan keeps a process-wide
catalog per q of the loops it has closed and of the orbit tails into them:
each odd value v on a loop maps to t_v, the halvings into v from its odd
predecessor on the loop, the loop length p, and the loop's reach, its
largest |c|; each odd value v a finished walk passed off its loop maps to
t = p - rest, rest being the orbit length from v, to p and to v's reach,
the largest |c| from v on.  A walk stops at the first odd value it finds
there whose reach stays inside the bound, at index i with g the index of
the odd value before it (-1 for none): ns = max(g + 1, i - t) + p, which
for a tail is i + rest.  Every walk that ends in a loop offers its entries
until the catalog holds _LOOP_CAP of them; past it a walk builds no
entries, so it costs what a cold walk costs.  For even q (odd k) an odd m
stays odd and m + q/2 triples at every step, so the only loops are the
fixed points m = -q/2 and m = 0, and that walk keeps no dict at all.

`goldbach_scan` sweeps the first prime, not the target, for even k: one
shift of the prime bitset per first prime settles about 64 targets to a
machine word.  Odd k keeps its closed form (see `goldbach_scan`).
"""

from __future__ import annotations

import threading
from enum import Enum
from itertools import islice

from .core import DomainError, _record, k_divides, k_primes_below, k_product, k_quotient

DEFAULT_MAGNITUDE_BOUND = 500_000
DEFAULT_STEP_LIMIT = 1_000_000
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


class OrbitKind(Enum):
    CYCLE = "cycle"
    FIXED_POINT = "fixed_point"
    MAGNITUDE_EXCEEDED = "magnitude_exceeded"
    STEP_LIMIT = "step_limit"


@_record
class OrbitOutcome:
    """Orbit prefix and how it terminated.

    A trajectory that repeats ends with the first repeated value included,
    so for cycles ns = len(trajectory) - 1 = pre_period + cycle_length, the
    step count convention used by all recorded orbit lengths here.
    """

    trajectory: tuple[int, ...]
    kind: OrbitKind
    pre_period: int | None = None
    cycle_length: int | None = None
    cycle_entry: int | None = None
    fixed_value: int | None = None
    bound: int | None = None
    steps: int | None = None

    @property
    def ns(self) -> int | None:
        if self.kind in (OrbitKind.CYCLE, OrbitKind.FIXED_POINT):
            return len(self.trajectory) - 1
        return None


class OddOrbitFate(Enum):
    DIVERGES = "diverges"
    FIXED_POINT = "fixed_point"


def two_divides(n: int, k: int) -> bool:
    """Whether 2 is a divisor of n in the k-arithmetic.

    Equivalent to n even for even k, n odd for odd k.
    """
    return k_divides(2, n, k)


def collatz_step(n: int, k: int) -> int:
    """One application of the Collatz-style map in the k-arithmetic."""
    q = k_quotient(n, 2, k)
    if isinstance(q, int):
        return q
    return k_product(n, 3, k) + 1


def orbit(
    n: int,
    k: int,
    magnitude_bound: int = DEFAULT_MAGNITUDE_BOUND,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> OrbitOutcome:
    """Iterate the map from n until a repeat, a bound excess, or exhaustion.

    Values are recorded while their magnitude stays below the bound; the
    first repeated value is recorded too, closing the loop.  A loop of
    length one is reported as a fixed point rather than a cycle.  The bound
    must be at least 1 and the step limit at least 0.

    Each step is the map's closed form, c -> (c - (k - 2)) / 2 when that is
    an integer and c -> 3c + 3k - 5 otherwise, so no quotient is built.
    """
    _check_limits(magnitude_bound, step_limit)
    halving_offset, tripling_offset = k - 2, 3 * k - 5
    # Insertion order makes seen the trajectory; its values are the indices.
    seen: dict[int, int] = {}
    current = n
    applied = 0
    while True:
        if abs(current) >= magnitude_bound:
            return OrbitOutcome(tuple(seen), OrbitKind.MAGNITUDE_EXCEEDED,
                                None, None, None, None, magnitude_bound, None)
        first = seen.setdefault(current, applied)
        if first != applied:
            fixed = applied - first == 1  # a loop of length one
            return OrbitOutcome(
                (*seen, current), OrbitKind.FIXED_POINT if fixed else OrbitKind.CYCLE,
                first, applied - first, None if fixed else current,
                current if fixed else None, None, None)
        if applied >= step_limit:
            return OrbitOutcome(tuple(seen), OrbitKind.STEP_LIMIT,
                                None, None, None, None, None, applied)
        d = current - halving_offset
        current = 3 * current + tripling_offset if d & 1 else d >> 1
        applied += 1


def fixed_points(k: int) -> list[int]:
    """Fixed points of the map for odd k.

    2 - k is always fixed (halving branch).  (5 - 3k)/2 is fixed exactly
    when it is even, which happens for k = 3 mod 4; odd values take the
    halving branch instead and move away.
    """
    if k % 2 == 0:
        raise DomainError("fixed-point classification applies to odd k only")
    points = [2 - k]
    exceptional = (5 - 3 * k) // 2
    if exceptional % 2 == 0:
        points.append(exceptional)
    return sorted(set(points))


def odd_k_classification(n: int, k: int) -> OddOrbitFate:
    """Eventual fate of the n-orbit for odd k: fixed point or divergence.

    With m = n + k - 2 the map is m -> m / 2 for even m and m -> 3m + q for
    odd m, q = k - 1 even, so an odd m stays odd and m + q/2 triples at each
    step.  Once the first halving run ends, the orbit therefore sits on a
    fixed point (see `fixed_points`) or never halves again and diverges; a
    start at m = 0 is the fixed point 2 - k itself.
    """
    if k % 2 == 0:
        raise DomainError("classification applies to odd k only")
    m = n + k - 2
    if m:
        m >>= (m & -m).bit_length() - 1  # the end of the first halving run
    fixed = m - (k - 2) in fixed_points(k)
    return OddOrbitFate.FIXED_POINT if fixed else OddOrbitFate.DIVERGES


def orbit_length_scan(
    n: int,
    k_values: list[int],
    magnitude_bound: int = DEFAULT_MAGNITUDE_BOUND,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> list[tuple[int, int | None, str]]:
    """Orbit summary rows (k, ns, kind) for plotting or CSV emission: `orbit`'s
    ns and kind for each k, walked without recording a trajectory."""
    _check_limits(magnitude_bound, step_limit)
    return [(k, *_orbit_end(n, k, magnitude_bound, step_limit)) for k in k_values]


def _check_limits(magnitude_bound: int, step_limit: int) -> None:
    if magnitude_bound < 1:
        raise DomainError(f"magnitude bound must be at least 1, got {magnitude_bound}")
    if step_limit < 0:
        raise DomainError(f"step limit must be at least 0, got {step_limit}")


def _orbit_end(n: int, k: int, bound: int, step_limit: int) -> tuple[int | None, str]:
    """`orbit(n, k, bound, step_limit)`'s (ns, kind value), one halving run
    at a time.

    c = m - (k - 2) is monotone along a run, so its two ends bound every
    value on it.  seen keys each odd value to its index, in order, so the
    index g of the odd value before each one is the entry before it
    (g = -1 for none).  The first odd value to repeat, at f and again at j,
    gives the period p = j - f, and the two halving runs that end in it
    agree back to the start of the shorter one: the loop starts at
    mu = max(g_f + 1, g_j - p + 1) and ns = mu + p.  The one loop with no
    odd value is the fixed point m = 0, reached only by tripling.

    Odd q (even k) also looks each odd value up in the map's loop catalog
    (see `_LoopCatalog`), where each odd value v on a closed loop carries
    t_v, the halvings into v from its odd predecessor on the loop, the loop
    length p and the loop's reach, its largest |c|.  The first hit v, at
    index i, whose reach is below the bound ends the walk: the same
    two-runs argument gives mu = max(g + 1, i - t_v) and ns = mu + p.  No
    earlier odd value lies on that loop, since the catalog holds every odd
    value of each loop it lists.  ns > i, so ns > step_limit reports
    "step_limit" exactly as `orbit` does.

    A walk that ends in a loop, its own or a catalog hit's, after ns steps
    also offers each odd value v it passed off the loop, at index a, as a
    tail entry (p - rest, p, reach_v) with rest = ns - a (see
    `_tail_entries`).  rest > p, so a later hit on v at index i gives
    ns = max(g + 1, i + rest - p) + p = i + rest with no branch of its own.
    The orbit from v does not depend on what came before it, because no
    value before v can lie on the loop v leads to: v would then lie on it
    too.  Both endings leave the while loop with r, the count of odd values
    the walk passed off its loop, and a walk that closed its own loop,
    seen[r:], sets reach to None.  One path then offers the entries: while
    the catalog is below _LOOP_CAP it builds the tails and, for a walk's own
    loop, the loop whole if it fits; once the catalog is full it builds
    nothing.  Even q (odd k) walks without a dict (see `_tripling_end`).
    """
    shift, q = k - 2, k - 1
    lo, hi = shift - bound, shift + bound  # |c| < bound  <=>  lo < m < hi
    m = n + shift
    if not q & 1:
        return _tripling_end(m, q, lo, hi, step_limit)
    loops = _catalog.loops.get(q) or ()  # an empty tuple answers `in` faster
    seen: dict[int, int] = {}
    i = 0
    while True:  # m is odd only at the start
        if not lo < m < hi:
            return None, "magnitude_exceeded" if i <= step_limit else "step_limit"
        if not m:
            return (i + 1, "fixed_point") if i < step_limit else (None, "step_limit")
        t = (m & -m).bit_length() - 1
        if not lo < m >> t < hi:
            while lo < m < hi:
                m >>= 1
                i += 1
            continue
        m >>= t
        i += t
        if m in loops:
            t_v, p, reach = loops[m]
            if reach < bound:
                r = len(seen)
                ns = max(next(reversed(seen.values()), -1) + 1, i - t_v) + p
                break
        f = seen.setdefault(m, i)
        if f != i:
            starts = list(seen.values())
            r = starts.index(f)
            p = i - f
            ns = max(starts[r - 1] + 1 if r else 0, starts[-1] - p + 1) + p
            reach = None
            break
        if i >= step_limit:
            return None, "step_limit"
        m = 3 * m + q
        i += 1
    if seen and _catalog.size < _LOOP_CAP:
        values, starts = list(seen), list(seen.values())
        loop = {}
        if reach is None:
            reach = _reach(values[r:], q, shift)
            if _catalog.size + len(values) - r <= _LOOP_CAP:
                loop = _loop_entries(values[r:], starts[r:], p, reach)
        _catalog.admit(q, loop, _tail_entries(values[:r], starts[:r], ns, p, reach, q, shift))
    if ns > step_limit:
        return None, "step_limit"
    return ns, "fixed_point" if p == 1 else "cycle"


def _tripling_end(m: int, q: int, lo: int, hi: int, step_limit: int) -> tuple[int | None, str]:
    """`_orbit_end` for even q (odd k), per step and with no repeat dict.

    An odd m stays odd, and m + q/2 triples at every step, so past the
    first halving run the orbit repeats only at the fixed point m = -q/2
    (when that is odd) and otherwise grows until it leaves the bound.  The
    only other loop is the fixed point m = 0, where only m = 0 starts.
    """
    fixed = -(q >> 1) if q >> 1 & 1 else 0
    i = 0
    while lo < m < hi:
        if m == fixed or not m:
            return (i + 1, "fixed_point") if i < step_limit else (None, "step_limit")
        if i >= step_limit:
            return None, "step_limit"
        m = 3 * m + q if m & 1 else m >> 1
        i += 1
    return None, "magnitude_exceeded" if i <= step_limit else "step_limit"


def _reach(values: list[int], q: int, shift: int) -> int:
    """The largest |c| = |m - shift| on the orbit segment through the odd
    values given: halving runs are monotone in c, so the largest sits at an
    odd v or at a run's top 3v + q."""
    return max(max(abs(v - shift), abs(3 * v + q - shift)) for v in values)


def _loop_entries(values: list[int], starts: list[int], p: int,
                  reach: int) -> dict[int, tuple[int, int, int]]:
    """Catalog entries v -> (t_v, p, reach) for the loop whose odd values,
    one period of them, the walk reached in order at the indices in starts.

    t_v is the halving steps into v from its odd predecessor on the loop;
    reach is the loop's `_reach`.
    """
    previous = [starts[-1] - p, *starts[:-1]]
    return {v: (at - before - 1, p, reach) for v, at, before in zip(values, starts, previous)}


def _tail_entries(values: list[int], starts: list[int], ns: int, p: int, reach: int,
                  q: int, shift: int) -> dict[int, tuple[int, int, int]]:
    """Catalog entries v -> (p - rest, p, reach_v) for odd values that a walk
    reached off its loop, in order at the indices in starts, before it ended
    with ns steps in a loop of length p whose orbit past the last of them
    reaches `reach`.

    rest = ns - a is the orbit length from v, reached at index a, and
    reach_v the largest |c| from v on.  The entries run from the last value
    back, so a catalog short of room keeps those nearest the loop.
    """
    entries = {}
    for v, a in zip(reversed(values), reversed(starts)):
        reach = max(reach, abs(v - shift), abs(3 * v + q - shift))
        entries[v] = (p - ns + a, p, reach)
    return entries


# The most loop and tail entries that the catalog keeps: past it, walks
# build no entries and cost what a cold walk costs.
_LOOP_CAP = 1 << 14


class _LoopCatalog:
    """Closed loops and the orbit tails into them of the odd-q maps
    m -> m/2, 3m + q, keyed by q.

    loops[q] maps each odd value v on a closed loop to (t_v, p, reach)
    (see `_loop_entries`), and each odd value v a finished walk passed off
    its loop to (p - rest, p, reach_v) (see `_tail_entries`).  A published
    dict is never changed: admit binds a new one, so a walk that reads
    loops[q] once sees whole loops or nothing, and reads take no lock.
    Entries stop at _LOOP_CAP: a loop is admitted whole or not at all, and
    tails take whatever room is left.
    """

    def __init__(self) -> None:
        self.loops: dict[int, dict[int, tuple[int, int, int]]] = {}
        self.size = 0
        self.lock = threading.Lock()

    def admit(self, q: int, loop: dict[int, tuple[int, int, int]],
              tails: dict[int, tuple[int, int, int]]) -> None:
        """Add the loop to q's entries if it is new and fits, then the tail
        entries q lacks, in order, while room is left."""
        with self.lock:
            old = self.loops.get(q, {})
            room = _LOOP_CAP - self.size
            if len(loop) > room or next(iter(loop), None) in old:
                loop = {}
            new = dict(islice(((v, e) for v, e in tails.items() if v not in old),
                              room - len(loop)))
            if loop or new:
                self.loops[q] = {**old, **loop, **new}
                self.size += len(loop) + len(new)


_catalog = _LoopCatalog()


@_record
class GoldbachReport:
    """Even targets in [6, limit] that are (or are not) sums of two k-primes."""

    k: int
    limit: int
    counterexamples: tuple[int, ...]
    decompositions: dict[int, tuple[int, int]] | None = None

    @property
    def least_counterexample(self) -> int | None:
        return self.counterexamples[0] if self.counterexamples else None


def goldbach_scan(k: int, limit: int, record_witnesses: bool = False) -> GoldbachReport:
    """Search every even target 6..limit for a sum of two k-primes.

    A target's witness is its decomposition with the least first k-prime.
    For odd k the k-primes are the powers of two >= 2, so h is such a sum
    exactly when it has at most two set bits: its lowest set bit plus the
    rest, or two halves when h is itself a power of two.  Even k sweeps the
    usual primes p1 in ascending order over ints used as bitsets, members
    (bit p: p is prime) and open (bit h: target h has no witness yet):
    (members << p1) & open, kept to h >= 2 * p1, holds exactly the targets
    whose least first prime is p1.  Once open has no bit at or above 2 * p1,
    its bits are the counterexamples.  Odd k keeps its closed form: almost
    every target there is a counterexample, and reading those back out of a
    bitset costs more than one bit count each.
    """
    if limit < 6:
        raise DomainError(f"targets start at 6, got limit {limit}")
    counterexamples = []
    decompositions: dict[int, tuple[int, int]] = {}
    if k % 2:
        for h in range(6, limit + 1, 2):
            if h.bit_count() > 2:
                counterexamples.append(h)
            elif record_witnesses:
                low = h & -h if h & (h - 1) else h >> 1
                decompositions[h] = (low, h - low)
    else:
        primes = k_primes_below(limit + 1, k)
        flags = bytearray(limit + 1)  # flags[limit - p] is bit p
        for p in primes:
            flags[limit - p] = 1
        members = int(flags.translate(_BINARY_DIGITS), 2)
        top = limit & ~1
        open_targets = ((1 << (top + 2)) - 1) // 3 >> 6 << 6  # even bits 6..top
        least = [0] * (limit + 1) if record_witnesses else None
        for p1 in primes:
            high = open_targets >> 2 * p1
            if not high:
                break
            hit = (members >> p1 & high) << 2 * p1  # (members << p1) & open, h >= 2p1
            open_targets ^= hit
            if record_witnesses:
                for h in _set_bits(hit):
                    least[h] = p1
        counterexamples = _set_bits(open_targets)
        if record_witnesses:
            decompositions = {
                h: (p1, h - p1) for h in range(6, limit + 1, 2) if (p1 := least[h])}
    return GoldbachReport(k, limit, tuple(counterexamples),
                          decompositions if record_witnesses else None)


def _set_bits(x: int) -> list[int]:
    """Ascending positions of the set bits of x >= 0, read from its binary
    string: base 2 has no digit limit, and a lowest-bit loop over a big int
    is quadratic."""
    digits = bin(x)[:1:-1]
    positions = []
    i = digits.find("1")
    while i >= 0:
        positions.append(i)
        i = digits.find("1", i + 1)
    return positions


def product_parity_set(k: int, a_values) -> set[int]:
    """The set of products a * 2 (arith k) over the given a values."""
    return {k_product(a, 2, k) for a in a_values}
