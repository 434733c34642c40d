"""Arithmetics generated by arbitrary integer sequences.

The product of m by n in the arithmetic generated by (a_i) is

    (m - n + 1) * n + W(n),    W(n) = sum over i < n of (n - i) * a_i,

which reduces to the k-arithmetic when the sequence is constant.  A term
count d divides a when d divides a - W(d).  Under g's divisor lemma (P, D,
(c_r)) (``Generator.divisor_lemma``) such a d ≡ r (mod P) divides D * a - c_r,
so a report tests those usual divisors, and D is the default bound factor.
Polynomial terms take their candidates, and censuses their sieve factor,
from the smaller ``Generator.sharp_factor``.
A sequence without a lemma needs a caller's bound and a subject a >= 1, and
its report reads the residues W(d) mod d from the prefix-sum memo: a d <= a
divides a when W(d) mod d == a mod d, which compares small integers in the
live residue table (``PrefixSums.residue_table``), and a d > a exactly when
W(d) mod d == a, which the residue index, the term counts sorted by their
residues in that same table, answers with two bisects per run
(``PrefixSums.residue_matches``), so a warm scan reads past a only the
entries its bisects probe.  Only the hits read W(d) again, for their
witnesses, and ``seq_is_prime`` counts the divisors of that one report.
``divisors`` and ``primes_below`` pick the route: under ``K_LEMMA`` (every
term k) they call the k-arithmetic's closed forms ``k_divisors`` and
``k_primes_below`` instead.

Both divisor-count censuses, primes and numbers with exactly c divisors
below a limit, are one call to ``_census``.  It reads how many term counts
d <= factor * n divide each subject n from the memo's divisor-count table
(``PrefixSums.divisor_counts``), one per bound factor, grown only over the
subjects no census has reached by inverting the scan into a sieve: each term
count d marks the subjects congruent to W(d) modulo d, O(limit log limit +
factor * limit) where a scan per subject would take O(factor * limit**2).
The answer is one bisect of the memo's member list for the factor and the
divisor count asked (``PrefixSums.census``), so a warm census costs
O(answer), not O(limit).
"""

from __future__ import annotations

from .core import (DivisorReport, DomainError, NotDivisible, _start_value, k_divisors,
                   k_primes_below, usual_divisors)
from .generators import K_LEMMA, Generator, PrefixSums


def seq_product(m: int, n: int, g: Generator) -> int:
    """Product of m by n in the arithmetic generated by g.

    Term counts below 1 are accepted only for polynomial sequences.
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
    """Divisors d <= search_bound (default D * |a|) of a: under g's divisor
    lemma and any a with D * a != c_r, the usual divisors of |D * a - c_r|
    that are ≡ r (mod P), D = E for polynomials; else all term counts, for
    a >= 1."""
    lemma = g.divisor_lemma
    if lemma is None and a < 1:
        raise DomainError(f"divisor report needs a positive subject, got {a}")
    if lemma is not None and lemma[1] * a in lemma[2]:
        raise DomainError(f"every term count congruent to {lemma[2].index(lemma[1] * a)} "
                          f"mod {lemma[0]} passes the divisor lemma's test for {a}; report refused")
    if search_bound is None:
        search_bound = _scan_factor(g) * abs(a)
    if search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    if lemma is None:
        divs = _scanned_divisors(a, g.prefix_sums(), search_bound)
    else:
        period, factor, classes = lemma
        factor = g.sharp_factor or factor  # every divisor of a divides E * a
        divs = sorted(d for r, c in enumerate(classes) for d in usual_divisors(abs(factor * a - c))
                      if d % period == r and d <= search_bound)
    witnesses = []
    for d in divs:  # d divides a when it divides a - W(d)
        q, r = divmod(a - g.weighted(d), d)
        if r == 0:
            witnesses.append((d, q + d - 1))
    return DivisorReport(a, tuple(d for d, _ in witnesses), tuple(witnesses), search_bound)


def _scanned_divisors(a: int, sums: PrefixSums, n: int) -> list[int]:
    """Ascending term counts d <= n that divide a >= 1, n within what the
    terms allow: d divides a when it divides a - W(d).  For d <= a that is
    W(d) mod d == a mod d, read from the live residue table; for d > a it is
    W(d) mod d == a, which the residue index answers in O(log n) per run,
    bisecting term counts keyed by that table."""
    table = sums.residue_table(n)
    found = [d for d in range(1, min(a, n) + 1) if table[d] == a % d]
    if a < n:
        found += sums.residue_matches(a, n)
    return found


def seq_is_prime(p: int, g: Generator, search_bound: int | None = None) -> bool:
    """True when p > 1 has exactly two divisors within the search bound, as
    counted in ``seq_divisors``' report, whose default bound it keeps."""
    if p <= 1:
        return False
    if g.divisor_lemma is not None or search_bound is None:
        return len(seq_divisors(p, g, search_bound).divisors) == 2
    # a scan that stops at a third divisor may succeed within a prefix that a
    # read up to the bound would exhaust; one with fewer divisors reads on
    sums = g.prefix_sums()
    readable = sums.readable(search_bound)
    hits = len(seq_divisors(p, g, readable).divisors)
    if hits <= 2 and readable < search_bound:
        sums.residues_upto(search_bound)  # raises the prefix's error
    return hits == 2


def _census(limit: int, g: Generator, factor: int, cap: int) -> list[int]:
    """Ascending subjects 1 < n < limit with exactly ``cap`` divisors
    d <= factor * n; [] for a limit of 2 or less.

    The counts come from the memo's divisor-count table and the subjects
    from its member list for (factor, cap); the table reads no
    term past g's prefix (``PrefixSums.readable``).  When that prefix ends
    before factor * (limit - 1), the prefix's error is raised if some
    subject whose range reaches past it has at most ``cap`` divisors within
    it, since a per-subject scan capped at ``cap`` would have read on;
    otherwise the counts are complete.
    """
    if limit <= 2:
        return []
    if g.sharp_factor is not None:  # every divisor of n divides E * n
        factor = min(factor, g.sharp_factor)
    sums = g.prefix_sums()
    counts = sums.divisor_counts(factor, limit)
    bound = factor * (limit - 1)
    readable = sums.readable(bound)
    if readable < bound:
        cut_short = range(max(2, readable // factor + 1), limit)
        if any(counts[n] <= cap for n in cut_short):
            sums.residues_upto(bound)  # raises the prefix's error
    return sums.census(factor, cap, limit)


def seq_primes_below(n: int, g: Generator, bound_factor: int | None = None) -> list[int]:
    """Ascending primes p with 1 < p < n in the generated arithmetic.

    Per-candidate scan bound is bound_factor * p; see ``_scan_factor``.
    """
    return _census(n, g, _scan_factor(g, bound_factor), cap=2)


def exact_divisor_count_numbers(
    count: int, limit: int, g: Generator, bound_factor: int | None = None
) -> list[int]:
    """All 1 < n < limit with exactly ``count`` divisors in the arithmetic."""
    if count < 1:
        raise DomainError(f"divisor count must be positive, got {count}")
    if limit < 2:
        raise DomainError(f"limit must be at least 2, got {limit}")
    return _census(limit, g, _scan_factor(g, bound_factor), cap=count)


def _scan_factor(g: Generator, bound_factor: int | None = None) -> int:
    """The scan bound factor: bound_factor when given, else the factor D of
    g's divisor lemma."""
    if bound_factor is not None:
        if bound_factor < 1:
            raise DomainError(f"bound factor must be positive, got {bound_factor}")
        return bound_factor
    lemma = g.divisor_lemma
    if lemma is None:
        raise DomainError(f"no divisor bound is known for {g.spec()}; pass a bound explicitly")
    return lemma[1]


def divisors(a: int, g: Generator, search_bound: int | None = None) -> DivisorReport:
    """Divisor report of a in the arithmetic g generates: k_divisors under K_LEMMA
    (every term k), which ignores a given bound once it is positive, else seq_divisors."""
    if g.divisor_lemma != K_LEMMA:
        return seq_divisors(a, g, search_bound)
    if search_bound is not None and search_bound < 1:
        raise DomainError(f"search bound must be positive, got {search_bound}")
    return k_divisors(a, g.term(1))


def primes_below(n: int, g: Generator, bound_factor: int | None = None) -> list[int]:
    """Primes below n in the arithmetic g generates: k_primes_below under K_LEMMA
    (every term k), else seq_primes_below.  A given factor must be positive."""
    factor = _scan_factor(g, bound_factor)
    if g.divisor_lemma != K_LEMMA:
        return seq_primes_below(n, g, factor)
    return k_primes_below(n, g.term(1))


def squares_sequence(count: int, g: Generator) -> list[int]:
    """Self-products i*i = i + W(i) for i = 1..count in the generated arithmetic."""
    return [i + w for i, w in enumerate(_self_weights(count, g), 1)]


def cubes_sequence(count: int, g: Generator) -> list[int]:
    """Triple self-products (i*i)*i for i = 1..count.  The square s = i + W(i)
    multiplied by i is (s - i + 1)*i + W(i), that is (w + 1)*i + w with w = W(i),
    read off the same W list as the squares."""
    return [(w + 1) * i + w for i, w in enumerate(_self_weights(count, g), 1)]


def _self_weights(count: int, g: Generator) -> list[int]:
    """[W(1), ..., W(count)], the one read both self-product lists make."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    return g.weighted_range(count)
