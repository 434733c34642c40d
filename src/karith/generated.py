"""Arithmetics generated by arbitrary integer sequences.

The product of m by n in the arithmetic generated by (a_i) is

    (m - n + 1) * n + W(n),    W(n) = sum over i < n of (n - i) * a_i,

which reduces to the k-arithmetic when the sequence is constant.  A term
count d divides a when d divides a - W(d).  For polynomial terms every such d
divides L * |a| (``Generator.divisor_factor``), so a divisor report of any
a != 0 tests the usual divisors of L * |a|, and L is the default bound
factor.  Any other sequence needs a caller's bound and a subject a >= 1, and
its report reads the residues W(d) mod d of every term count up to it from
the prefix-sum memo's residue table (``PrefixSums.residues_upto``): a d <= a
divides a when W(d) mod d == a mod d, which compares small integers, and a
d > a exactly when W(d) mod d == a, which one search of the table finds.
Only the hits read W(d) again, for their witnesses.
``divisors`` and ``primes_below`` pick the route: when every term is k (a
one-entry ``differences``) they call the k-arithmetic's closed forms
``k_divisors`` and ``k_primes_below`` instead.

The divisor-count censuses (primes, numbers with exactly c divisors below a
limit) invert the scan into a sieve: each term count d marks the subjects
congruent to W(d) modulo d, O(limit log limit + factor * limit) in all,
where a scan per subject would take O(factor * limit**2).  A term count at
or past the limit reaches at most the subject W(d) mod d, and costs one
table read.
"""

from __future__ import annotations

from .core import (DivisorReport, DomainError, NotDivisible, _divisor_report, _start_value,
                   k_divisors, k_primes_below, usual_divisors)
from .generators import Generator


def seq_product(m: int, n: int, g: Generator) -> int:
    """Product of m by n in the arithmetic generated by g.

    Term counts below 1 are accepted only for polynomial sequences
    (g.differences set).
    """
    return (m - n + 1) * n + g.weighted(n)


def seq_quotient(a: int, b: int, g: Generator) -> int | NotDivisible:
    """Start value c with seq_product(c, b, g) == a, or NotDivisible.

    Term counts below 1 follow seq_product; b = 0 is a domain error.
    """
    if b == 0:
        raise DomainError("quotient by zero term count")
    return _start_value(a, b, g.weighted(b))


def seq_divisors(a: int, g: Generator, search_bound: int | None = None) -> DivisorReport:
    """Divisors d <= search_bound (default L * |a|) of a, tested among the
    usual divisors of L * |a| for polynomial terms, which take any a != 0,
    else among all term counts, for a >= 1."""
    if a == 0 or (a < 0 and g.divisor_factor is None):
        raise DomainError(f"divisor report needs a positive subject, got {a}")
    if search_bound is None:
        search_bound = _scan_factor(g) * abs(a)
    if search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    if g.divisor_factor is None:
        divs = _scanned_divisors(a, g.prefix_sums().residues_upto(search_bound))
    else:
        divs = (d for d in usual_divisors(g.divisor_factor * abs(a)) if d <= search_bound)
    return _divisor_report(a, ((d, g.weighted(d)) for d in divs), search_bound)


def _scanned_divisors(a: int, residues: list[int]) -> list[int]:
    """Ascending term counts d < len(residues) that divide a >= 1, given
    residues[d] = W(d) mod d: d divides a when it divides a - W(d), which for
    d > a holds exactly when W(d) mod d == a."""
    head = min(a, len(residues) - 1)
    found = [d for d in range(1, head + 1) if residues[d] == a % d]
    d = head
    try:
        while True:
            d = residues.index(a, d + 1)
            found.append(d)
    except ValueError:  # no further d > a
        return found


def _readable_residues(g: Generator, bound: int) -> list[int]:
    """[0, W(1) mod 1, ..., W(D) mod D] for the largest D <= bound that g's
    prefix allows.

    W(D) reads the first D - 1 terms, so a prefix of P terms allows P + 1.
    A scan that stops early, once a subject has too many divisors, may
    succeed on a prefix that a full read up to the bound would exhaust.
    """
    if g.prefix_length is not None:
        bound = min(bound, g.prefix_length + 1)
    return g.prefix_sums().residues_upto(bound)


def seq_is_prime(p: int, g: Generator, search_bound: int | None = None) -> bool:
    """True when p > 1 has exactly two divisors within the search bound:
    among the usual divisors of L * p for polynomial terms, as in
    seq_divisors, else among all term counts."""
    if p <= 1:
        return False
    if search_bound is None:
        search_bound = _scan_factor(g) * p
    if search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    if g.divisor_factor is not None:
        return len(seq_divisors(p, g, search_bound).divisors) == 2
    residues = _readable_residues(g, search_bound)
    hits = len(_scanned_divisors(p, residues))
    if hits <= 2 and len(residues) - 1 < search_bound:
        # a scan with at most two divisors so far reads on past the prefix
        g.prefix_sums().residues_upto(search_bound)
    return hits == 2


def _divisor_counts(limit: int, g: Generator, factor: int, cap: int) -> list[int]:
    """counts[n] = number of divisors d <= factor * n of n, for 2 <= n < limit.

    Inverted sieve: term count d divides exactly the subjects n congruent to
    W(d) modulo d, and it is in n's scan range when n >= d / factor; for
    d >= limit the only candidate below the limit is n = W(d) mod d.  When
    g's prefix ends before factor * (limit - 1), the prefix's error is raised
    if some subject whose range reaches past the prefix has at most ``cap``
    divisors within it, since a per-subject scan capped at ``cap`` would have
    read on; otherwise the counts it has are complete up to ``cap``.
    """
    counts = [0] * max(limit, 2)
    if limit <= 2:
        return counts
    bound = factor * (limit - 1)
    residues = _readable_residues(g, bound)
    readable = len(residues) - 1
    split = min(readable, limit - 1)
    for d in range(1, split + 1):
        lo = max(2, -(-d // factor))
        for n in range(lo + (residues[d] - lo) % d, limit, d):
            counts[n] += 1
    for d, n in zip(range(split + 1, readable + 1), residues[split + 1:]):
        if 2 <= n < limit and d <= factor * n:
            counts[n] += 1
    if readable < bound:
        cut_short = range(max(2, readable // factor + 1), limit)
        if any(counts[n] <= cap for n in cut_short):
            g.prefix_sums().residues_upto(bound)  # raises the prefix's error
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
    """The scan bound factor: bound_factor when given, else g's divisor
    factor L, which only polynomial sequences have."""
    if bound_factor is not None:
        if bound_factor < 1:
            raise DomainError(f"bound factor must be positive, got {bound_factor}")
        return bound_factor
    if g.divisor_factor is None:
        raise DomainError(f"no divisor bound is known for {g.spec()}; pass a bound explicitly")
    return g.divisor_factor


def divisors(a: int, g: Generator, search_bound: int | None = None) -> DivisorReport:
    """Divisor report of a in the arithmetic g generates: k_divisors when every
    term is k, which ignores a given bound once it is positive, else seq_divisors."""
    diffs = g.differences
    if diffs is None or len(diffs) > 1:
        return seq_divisors(a, g, search_bound)
    if search_bound is not None and search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    return k_divisors(a, diffs[0])


def primes_below(n: int, g: Generator, bound_factor: int | None = None) -> list[int]:
    """Primes below n in the arithmetic g generates: k_primes_below when every
    term is k, else seq_primes_below.  A given factor must be positive."""
    factor = _scan_factor(g, bound_factor)
    diffs = g.differences
    if diffs is None or len(diffs) > 1:
        return seq_primes_below(n, g, factor)
    return k_primes_below(n, diffs[0])


def squares_sequence(count: int, g: Generator) -> list[int]:
    """Self-products i*i for i = 1..count in the generated arithmetic."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    g.weighted(count)  # grows a cold memo in one read, not one per i
    return [seq_product(i, i, g) for i in range(1, count + 1)]


def cubes_sequence(count: int, g: Generator) -> list[int]:
    """Triple self-products (i*i)*i for i = 1..count."""
    return [seq_product(s, i, g) for i, s in enumerate(squares_sequence(count, g), 1)]
