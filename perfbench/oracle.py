"""Independent reference answers for every request the benchmark issues.

Nothing here imports karith.  Products are literal progression sums,
divisors come from trial-division factorisation, primes from plain trial
division, weighted sums from the generator's own terms, and orbits are
re-walked step by step.  A check raises Mismatch on the first difference.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Products with more terms than this are summed with the series formula
# n * (first + last) / 2 instead of term by term.
LITERAL_TERMS = 4096
# Every this many entries the weighted-sum table is recomputed term by term.
LITERAL_W_EVERY = 64


class Mismatch(AssertionError):
    """A karith result disagrees with the reference answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# ------------------------------------------------------------ k-arithmetic

def progression_sum(first: int, steps, count: int) -> int:
    """Sum of ``count`` terms starting at ``first``; ``steps(j)`` is the
    difference between term j + 1 and term j (1-based)."""
    total = 0
    term = first
    for j in range(1, count + 1):
        total += term
        term += steps(j)
    return total


def k_product(m: int, n: int, k: int) -> int:
    """m times n in the k-arithmetic: n terms from m - n + 1, difference k."""
    expect(n >= 1, f"reference product needs a positive term count, got {n}")
    first = m - n + 1
    if n <= LITERAL_TERMS:
        return progression_sum(first, lambda _j: k, n)
    last = first + (n - 1) * k
    return n * (first + last) // 2


def k_ratio(a: int, b: int, k: int) -> Fraction:
    """The start value c solving k_product(c, b, k) == a, as a rational."""
    return Fraction(a, b) + (b - 1) * (1 - Fraction(k, 2))


def factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def usual_divisors(n: int) -> list[int]:
    divisors = [1]
    for p, e in factorize(n).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sorted(divisors)


def k_divisor_list(a: int, k: int) -> list[int]:
    """Term counts d >= 1 with an integer start value; each divides 2|a|."""
    return [d for d in usual_divisors(2 * abs(a)) if k_ratio(a, d, k).denominator == 1]


def check_k_divisors(a: int, k: int, report) -> None:
    expect(report.subject == a, f"subject {report.subject} != {a}")
    divisors = list(report.divisors)
    expect(divisors == k_divisor_list(a, k), f"divisors of {a} (k={k}) differ")
    expect([d for d, _ in report.witnesses] == divisors, "witness order differs")
    for d, b in report.witnesses:
        expect(k_product(b, d, k) == a, f"witness product({b}, {d}, {k}) != {a}")


def is_trial_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class KPrimes:
    """k-primes (exactly two k-divisors) up to a growing limit, per parity of k."""

    def __init__(self):
        self._upto = {0: 1, 1: 1}
        self._primes = {0: [], 1: []}

    def below(self, n: int, k: int) -> list[int]:
        parity = k % 2
        primes = self._primes[parity]
        for p in range(self._upto[parity] + 1, n):
            if parity == 0:
                prime = is_trial_prime(p)
            else:
                prime = len(k_divisor_list(p, k)) == 2
            if prime:
                primes.append(p)
        self._upto[parity] = max(self._upto[parity], n - 1)
        return [p for p in primes if p < n]


K_PRIMES = KPrimes()


def check_k_primes_below(n: int, k: int, primes) -> None:
    expect(list(primes) == K_PRIMES.below(n, k), f"k-primes below {n} (k={k}) differ")


def check_residual_set(k: int, half: int, report) -> None:
    primes = K_PRIMES.below(2 * half + 1, k)
    expect(list(report.primes_used) == primes, f"primes used for window {half} differ")
    offsets = [(p, k_product(0, p, k)) for p in primes]
    check_cover(half, offsets, report, lambda n, p: k_product(n, p, k))


def residual_values(half: int, offsets) -> list[int]:
    """Values of [-half, half] that no progression p*n + offset reaches."""
    return [x for x in range(-half, half + 1)
            if not any((x - off) % p == 0 for p, off in offsets)]


def check_cover(half: int, offsets, report, product) -> None:
    residual = residual_values(half, offsets)
    expect(list(report.residual) == residual, f"residual {report.residual} != {residual}")
    expect(report.window_half == half, "window half-width differs")
    expect(len(report.witnesses) + len(residual) == 2 * half + 1, "witnesses miss covered values")
    for value, (p, n) in report.witnesses.items():
        expect(-half <= value <= half, f"witness value {value} outside the window")
        expect(product(n, p) == value, f"cover witness ({p}, {n}) misses {value}")


def goldbach_counterexamples(k: int, limit: int) -> list[int]:
    primes = K_PRIMES.below(limit + 1, k)
    prime_set = set(primes)
    out = []
    for h in range(6, limit + 1, 2):
        if not any(h - p in prime_set for p in primes if 2 * p <= h):
            out.append(h)
    return out


def goldbach_witness(k: int, h: int) -> tuple[int, int]:
    primes = K_PRIMES.below(h + 1, k)
    prime_set = set(primes)
    p = next(p for p in primes if h - p in prime_set)
    return p, h - p


def check_goldbach(k: int, limit: int, report) -> None:
    expect(report.k == k and report.limit == limit, "goldbach report header differs")
    expected = goldbach_counterexamples(k, limit)
    expect(list(report.counterexamples) == expected, f"goldbach counterexamples (k={k}) differ")


# ------------------------------------------------------------------ orbits

def collatz_step(n: int, k: int) -> int:
    """Halve (the 2-term quotient) when it is integral, else 3-product plus one."""
    if (n - k) % 2 == 0:
        return (n - k + 2) // 2
    return k_product(n, 3, k) + 1


def walk(n: int, k: int, bound: int, step_limit: int):
    """(kind, trajectory, first index of the repeated value or None)."""
    trajectory: list[int] = []
    seen: dict[int, int] = {}
    current = n
    applied = 0
    while True:
        if abs(current) >= bound:
            return "magnitude_exceeded", trajectory, None
        trajectory.append(current)
        if current in seen:
            first = seen[current]
            kind = "fixed_point" if len(trajectory) - 1 - first == 1 else "cycle"
            return kind, trajectory, first
        seen[current] = len(trajectory) - 1
        if applied >= step_limit:
            return "step_limit", trajectory, None
        current = collatz_step(current, k)
        applied += 1


def check_orbit(n: int, k: int, bound: int, step_limit: int, outcome) -> None:
    kind, trajectory, first = walk(n, k, bound, step_limit)
    expect(outcome.kind.value == kind, f"orbit({n}, {k}) kind {outcome.kind.value} != {kind}")
    expect(list(outcome.trajectory) == trajectory, f"orbit({n}, {k}) trajectory differs")
    if first is None:
        expect(outcome.ns is None, f"orbit({n}, {k}) reports ns for an unclosed orbit")
        return
    length = len(trajectory) - 1 - first
    expect(outcome.pre_period == first, f"orbit({n}, {k}) pre-period differs")
    expect(outcome.cycle_length == length, f"orbit({n}, {k}) cycle length differs")
    expect(outcome.ns == len(trajectory) - 1, f"orbit({n}, {k}) ns differs")
    entry = outcome.fixed_value if kind == "fixed_point" else outcome.cycle_entry
    value = entry
    for step in range(1, length + 1):
        value = collatz_step(value, k)
        expect((value == entry) == (step == length), f"cycle at {entry} (k={k}) does not close")


def scan_rows(n: int, ks, bound: int, step_limit: int) -> list[tuple]:
    rows = []
    for k in ks:
        kind, trajectory, first = walk(n, k, bound, step_limit)
        ns = len(trajectory) - 1 if first is not None else None
        rows.append((k, ns, kind))
    return rows


def check_orbit_scan(n: int, ks, bound: int, step_limit: int, rows) -> None:
    expect([tuple(r) for r in rows] == scan_rows(n, ks, bound, step_limit),
           f"orbit scan of {n} differs")


# ---------------------------------------------------- generated arithmetics

class Terms:
    """Terms a_1, a_2, ... of a canonical arithmetic spec, with the plain and
    weighted prefix sums W(n) = sum over i < n of (n - i) * a_i."""

    def __init__(self, spec: str):
        self._term = _term_function(spec)
        self.terms = [0]        # terms[i] = a_i
        self.weighted_sums = [0, 0]  # weighted_sums[n] = W(n)
        self._plain = 0

    def term(self, i: int) -> int:
        while len(self.terms) <= i:
            self.terms.append(self._term(len(self.terms)))
        return self.terms[i]

    def W(self, n: int) -> int:
        while len(self.weighted_sums) <= n:
            m = len(self.weighted_sums) - 1
            self._plain += self.term(m)
            self.weighted_sums.append(self.weighted_sums[m] + self._plain)
            if m % LITERAL_W_EVERY == 0:
                literal = sum((m + 1 - i) * self.term(i) for i in range(1, m + 1))
                expect(self.weighted_sums[m + 1] == literal, f"W({m + 1}) table is wrong")
        return self.weighted_sums[n]

    def product(self, m: int, n: int) -> int:
        """Literal sum of n terms from m - n + 1, the j-th step adding a_j."""
        expect(n >= 1, f"reference product needs a positive term count, got {n}")
        self.term(n)
        return progression_sum(m - n + 1, self.terms.__getitem__, n)

    def divides(self, d: int, a: int) -> bool:
        return (a - self.W(d)) % d == 0


def _term_function(spec: str):
    if spec == "primes":
        return nth_prime
    if spec == "alt":
        return lambda i: 1 if i % 2 else -1
    if spec == "zeroone":
        return lambda i: 0 if i % 2 else 1
    if spec == "fpattern":
        return _furst_term
    head, _, body = spec.partition(":")
    values = [int(x) for x in body.split(",")]
    if head == "const":
        return lambda i: values[0]
    if head == "ap":
        return lambda i: values[0] + (i - 1) * values[1]
    if head == "gp":
        return lambda i: values[0] * values[1] ** (i - 1)
    if head == "poly":
        return lambda i: sum(c * (i - 1) ** j for j, c in enumerate(values))
    raise ValueError(f"reference has no terms for {spec!r}")


def _furst_term(i: int) -> int:
    """Blocks 1, -1 then 2**b - 1 zeros, for b = 1, 2, 3, ..."""
    start, b = 1, 1
    while i >= start + 2**b + 1:
        start += 2**b + 1
        b += 1
    return {0: 1, 1: -1}.get(i - start, 0)


_PRIMES = [2]


def nth_prime(i: int) -> int:
    candidate = _PRIMES[-1]
    while len(_PRIMES) < i:
        candidate += 1
        if is_trial_prime(candidate):
            _PRIMES.append(candidate)
    return _PRIMES[i - 1]


_TERMS: dict[str, Terms] = {}


def terms(spec: str) -> Terms:
    if spec not in _TERMS:
        _TERMS[spec] = Terms(spec)
    return _TERMS[spec]


def divisor_counts(t: Terms, limit: int, factor: int) -> list[int]:
    """counts[a] = number of term counts d <= factor * a dividing a, for a < limit.

    Each d adds one to every subject congruent to W(d) mod d that is at
    least d / factor, so the sweep costs O(limit log limit) reads of W.
    """
    counts = [0] * limit
    for d in range(1, factor * (limit - 1) + 1):
        lowest = -(-d // factor)
        a = lowest + (t.W(d) - lowest) % d
        for subject in range(a, limit, d):
            counts[subject] += 1
    return counts


def check_census(spec: str, count: int, limit: int, factor: int, got) -> None:
    counts = divisor_counts(terms(spec), limit, factor)
    expected = [n for n in range(2, limit) if counts[n] == count]
    expect(list(got) == expected, f"{count}-divisor census below {limit} in {spec} differs")


def check_seq_divisors(spec: str, a: int, bound: int, report) -> None:
    t = terms(spec)
    expected = [d for d in range(1, bound + 1) if t.divides(d, a)]
    expect(report.subject == a and report.search_bound == bound, "divisor report header differs")
    expect(list(report.divisors) == expected, f"divisors of {a} in {spec} differ")
    expect([d for d, _ in report.witnesses] == expected, "witness order differs")
    for d, b in report.witnesses:
        expect(t.product(b, d) == a, f"witness product({b}, {d}) != {a} in {spec}")


def seq_primes(spec: str, limit: int, factor: int) -> list[int]:
    counts = divisor_counts(terms(spec), limit, factor)
    return [n for n in range(2, limit) if counts[n] == 2]


def check_seq_residual_set(spec: str, half: int, prime_limit: int, factor: int, report) -> None:
    t = terms(spec)
    if spec.startswith("const:"):
        primes = K_PRIMES.below(prime_limit, int(spec[6:]))
    else:
        primes = seq_primes(spec, prime_limit, factor)
    expect(list(report.primes_used) == primes, f"primes used in {spec} differ")
    offsets = [(p, t.product(0, p)) for p in primes]
    check_cover(half, offsets, report, lambda n, p: t.product(n, p))


def squares(spec: str, count: int) -> list[int]:
    t = terms(spec)
    return [t.product(i, i) for i in range(1, count + 1)]


def cubes(spec: str, count: int) -> list[int]:
    t = terms(spec)
    return [t.product(t.product(i, i), i) for i in range(1, count + 1)]


def seq_ratio(spec: str, a: int, b: int) -> Fraction:
    """Start value c solving product(c, b) == a: (a - W(b)) / b + b - 1."""
    return Fraction(a - terms(spec).W(b), b) + b - 1


def quotient(spec: str, a: int, b: int) -> int | Fraction:
    """The integer start value, checked by a literal sum, or the rational."""
    ratio = seq_ratio(spec, a, b)
    if ratio.denominator != 1:
        return ratio
    expect(terms(spec).product(ratio.numerator, b) == a, f"reference quotient {a}/{b} is wrong")
    return ratio.numerator


# --------------------------------------------------------------------- cli

def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
