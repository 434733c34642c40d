"""Arithmetics generated by arbitrary integer sequences.

The product of m by n in the arithmetic generated by (a_i) is

    (m - n + 1) * n + W(n),    W(n) = sum over i < n of (n - i) * a_i,

which reduces to the k-arithmetic when the sequence is constant.  Divisor
enumeration has no closed characterization here, so it scans term counts up
to a bound: DEFAULT_BOUND_FACTOR * a by default for arithmetic-progression
generators (the only family with an asserted bound), caller-supplied for
everything else.  ``divisors`` and ``primes_below`` are the entries that
take the k-arithmetic's closed characterizations for constant generators.

Every scan reads W(1..bound) with one bulk prefix-sum read and then tests
(a - W(d)) mod d per term count d: O(bound) for one divisor report.  The
divisor-count censuses (primes, numbers with exactly c divisors below a
limit) invert the scan into a sieve: each term count d marks the subjects
congruent to W(d) modulo d, O(limit log limit + factor * limit) in all,
where a scan per subject would take O(factor * limit**2).
"""

from __future__ import annotations

from fractions import Fraction

from .core import DivisorReport, DomainError, NotDivisible, k_divisors, k_primes_below
from .generators import Constant, Generator, supports_default_divisor_bound

#: divisors of a lie in 1..6a for arithmetic-progression generators
DEFAULT_BOUND_FACTOR = 6


def seq_product(m: int, n: int, g: Generator) -> int:
    """Product of m by n in the arithmetic generated by g.

    Term counts below 1 are accepted only for generators with a polynomial
    closed form (constants, arithmetic progressions, polynomial sequences).
    """
    return (m - n + 1) * n + g.weighted(n)


def seq_quotient(a: int, b: int, g: Generator) -> int | NotDivisible:
    """Start value c with seq_product(c, b, g) == a, or NotDivisible.

    Term counts below 1 follow seq_product; b = 0 is a domain error.
    """
    if b == 0:
        raise DomainError("quotient by zero term count")
    num = a - g.weighted(b)
    q, r = divmod(num, b)
    if r == 0:
        return q + b - 1
    return NotDivisible(Fraction(num, b) + (b - 1))


def seq_divisors(a: int, g: Generator, search_bound: int | None = None) -> DivisorReport:
    """Divisors of a >= 1 found by scanning term counts 1..search_bound."""
    if a < 1:
        raise DomainError(f"divisor report needs a positive subject, got {a}")
    if search_bound is None:
        search_bound = _scan_factor(g) * a
    if search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    sums = g.prefix_sums().weighted_upto(search_bound)
    witnesses = []
    for d in range(1, search_bound + 1):
        q, r = divmod(a - sums[d], d)
        if r == 0:
            witnesses.append((d, q + d - 1))
    return DivisorReport(
        subject=a,
        divisors=tuple(d for d, _ in witnesses),
        witnesses=tuple(witnesses),
        search_bound=search_bound,
    )


def _readable_sums(g: Generator, bound: int) -> list[int]:
    """[0, W(1), ..., W(D)] for the largest D <= bound that g's prefix allows.

    W(D) reads the first D - 1 terms, so a prefix of L terms allows L + 1.
    A scan that stops early, once a subject has too many divisors, may
    succeed on a prefix that a full read up to the bound would exhaust.
    """
    if g.prefix_length is not None:
        bound = min(bound, g.prefix_length + 1)
    return g.prefix_sums().weighted_upto(max(bound, 0))


def seq_is_prime(p: int, g: Generator, search_bound: int | None = None) -> bool:
    """True when p > 1 has exactly two divisors within the search bound."""
    if p <= 1:
        return False
    if search_bound is None:
        search_bound = _scan_factor(g) * p
    sums = _readable_sums(g, search_bound)
    hits = sum((p - sums[d]) % d == 0 for d in range(1, len(sums)))
    if hits <= 2 and len(sums) - 1 < search_bound:
        # a scan with at most two divisors so far reads on past the prefix
        g.prefix_sums().weighted_upto(search_bound)
    return hits == 2


def _divisor_counts(limit: int, g: Generator, factor: int, cap: int) -> list[int]:
    """counts[n] = number of divisors d <= factor * n of n, for 2 <= n < limit.

    Inverted sieve: term count d divides exactly the subjects n congruent to
    W(d) modulo d, and it is in n's scan range when n >= d / factor.  When
    g's prefix ends before factor * (limit - 1), the prefix's error is raised
    if some subject whose range reaches past the prefix has at most ``cap``
    divisors within it, since a per-subject scan capped at ``cap`` would have
    read on; otherwise the counts it has are complete up to ``cap``.
    """
    counts = [0] * max(limit, 2)
    if limit <= 2:
        return counts
    bound = factor * (limit - 1)
    sums = _readable_sums(g, bound)
    readable = len(sums) - 1
    for d in range(1, readable + 1):
        lo = max(2, -(-d // factor))
        for n in range(lo + (sums[d] - lo) % d, limit, d):
            counts[n] += 1
    if readable < bound:
        cut_short = range(max(2, readable // factor + 1), limit)
        if any(counts[n] <= cap for n in cut_short):
            g.prefix_sums().weighted_upto(bound)  # raises the prefix's error
    return counts


def seq_primes_below(n: int, g: Generator, bound_factor: int | None = None) -> list[int]:
    """Ascending primes p with 1 < p < n in the generated arithmetic.

    Per-candidate scan bound is bound_factor * p; see ``_scan_factor``.
    """
    counts = _divisor_counts(n, g, _scan_factor(g, bound_factor), cap=2)
    return [p for p in range(2, n) if counts[p] == 2]


def exact_divisor_count_numbers(
    count: int, limit: int, g: Generator, bound_factor: int | None = None
) -> list[int]:
    """All 1 < n < limit with exactly ``count`` divisors in the arithmetic."""
    if count < 1:
        raise DomainError(f"divisor count must be positive, got {count}")
    if limit < 2:
        raise DomainError(f"limit must be at least 2, got {limit}")
    counts = _divisor_counts(limit, g, _scan_factor(g, bound_factor), cap=count)
    return [n for n in range(2, limit) if counts[n] == count]


def _scan_factor(g: Generator, bound_factor: int | None = None) -> int:
    """The scan bound factor: bound_factor when given, else the default,
    which only arithmetic-progression generators have."""
    if bound_factor is not None:
        if bound_factor < 1:
            raise DomainError(f"bound factor must be positive, got {bound_factor}")
        return bound_factor
    if not supports_default_divisor_bound(g):
        raise DomainError(f"no divisor bound is known for {g.spec()}; pass a bound explicitly")
    return DEFAULT_BOUND_FACTOR


def divisors(a: int, g: Generator, search_bound: int | None = None) -> DivisorReport:
    """Divisor report of a in the arithmetic g generates.

    Constants take the k-arithmetic's closed characterization, which accepts
    any a != 0 and needs no bound (a given one must still be positive); other
    generators scan (seq_divisors).
    """
    if isinstance(g, Constant):
        if search_bound is not None and search_bound < 1:
            raise DomainError(f"search bound must be positive, got {search_bound}")
        return k_divisors(a, g.k)
    return seq_divisors(a, g, search_bound)


def primes_below(n: int, g: Generator, bound_factor: int | None = None) -> list[int]:
    """Primes below n in the arithmetic g generates.

    Constants take the k-arithmetic's census, which needs no bound (a given
    factor must still be positive); other generators sieve (seq_primes_below).
    """
    factor = _scan_factor(g, bound_factor)
    if isinstance(g, Constant):
        return k_primes_below(n, g.k)
    return seq_primes_below(n, g, factor)


def squares_sequence(count: int, g: Generator) -> list[int]:
    """Self-products i*i for i = 1..count in the generated arithmetic."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    return [seq_product(i, i, g) for i in range(1, count + 1)]


def cubes_sequence(count: int, g: Generator) -> list[int]:
    """Triple self-products (i*i)*i for i = 1..count."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    return [seq_product(seq_product(i, i, g), i, g) for i in range(1, count + 1)]
