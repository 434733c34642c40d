"""Exact k-arithmetic on integers.

The k-arithmetic product of m by n is the sum of n terms of an arithmetic
progression with common difference k whose first term is m - n + 1:

    product(m, n, k) = (m - n + 1) * n + n * (n - 1) * k / 2

k = 2 recovers ordinary multiplication.  Other values of k induce their own
notions of quotient, divisor and prime, computed here in exact arbitrary
precision: no floats anywhere, failed quotients carry their exact rational.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt


class DomainError(ValueError):
    """An operation was called outside its defined domain."""


@dataclass(frozen=True)
class NotDivisible:
    """Failed exact quotient.  Carries the exact rational for diagnostics."""

    ratio: Fraction

    def __str__(self) -> str:
        return f"NotDivisible {self.ratio}"


@dataclass(frozen=True)
class DivisorReport:
    """Positive divisors of ``subject`` in a given arithmetic.

    ``witnesses`` pairs each divisor d with the start value b such that
    the product of b by d equals the subject.  ``search_bound`` records the
    scan bound when the report came from a bounded scan (sequence-generated
    arithmetics); it is None when a closed characterization was used.
    """

    subject: int
    divisors: tuple[int, ...]
    witnesses: tuple[tuple[int, int], ...]
    search_bound: int | None = None


@dataclass(frozen=True)
class Representation:
    """One way of writing an integer as a progression sum.

    ``terms`` has exactly ``length`` entries with constant difference,
    first term ``start - length + 1``, summing to the represented integer.
    """

    start: int
    length: int
    terms: tuple[int, ...]


def k_product(m: int, n: int, k: int) -> int:
    """Product of m by n in the k-arithmetic, for any integers m, n, k."""
    return (m - n + 1) * n + (n * (n - 1) // 2) * k


def k_product_by_summation(m: int, n: int, k: int) -> int:
    """Literal n-term progression sum defining the product.  Needs n >= 1."""
    if n < 1:
        raise DomainError(f"summation form needs a positive term count, got {n}")
    first = m - n + 1
    return sum(first + i * k for i in range(n))


def t_peano_product(m: int, n: int, t: int) -> int:
    """Successor-style recursive product: P(m, 1) = m, P(m, n+1) = m + P(m+t, n)."""
    if n < 1:
        raise DomainError(f"recursive product needs a positive term count, got {n}")
    total = 0
    addend = m
    for _ in range(n):
        total += addend
        addend += t
    return total


def k_quotient(a: int, b: int, k: int) -> int | NotDivisible:
    """Start value c with product(c, b, k) == a, or NotDivisible.

    The exact rational is a/b + (b - 1)(1 - k/2); it is returned inside
    NotDivisible when it is not an integer.  b = 0 is a domain error.
    """
    if b == 0:
        raise DomainError("quotient by zero term count")
    num = 2 * a + b * (b - 1) * (2 - k)
    den = 2 * b
    q, r = divmod(num, den)
    if r == 0:
        return q
    return NotDivisible(Fraction(num, den))


def k_divides(d: int, a: int, k: int) -> bool:
    """True when d is a positive term count representing a in the k-arithmetic."""
    return d > 0 and isinstance(k_quotient(a, d, k), int)


def usual_divisors(n: int) -> list[int]:
    """Ascending positive divisors of n >= 1 by trial division."""
    if n < 1:
        raise DomainError(f"usual_divisors needs n >= 1, got {n}")
    small: list[int] = []
    large: list[int] = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def k_divisors(a: int, k: int) -> DivisorReport:
    """All divisors of a in the k-arithmetic, with their start-value witnesses.

    Fast path: for even k these are the usual divisors of |a|; for odd k the
    usual divisors of 2|a| minus the even usual divisors of |a|.  Witnesses
    are computed for the signed subject.  a = 0 is refused (every term count
    would qualify).
    """
    if a == 0:
        raise DomainError("every positive integer divides 0; report refused")
    n = abs(a)
    if k % 2 == 0:
        divs = usual_divisors(n)
    else:
        divs = [d for d in usual_divisors(2 * n) if d % 2 == 1 or n % d != 0]
    witnesses = []
    for d in divs:
        b = k_quotient(a, d, k)
        if not isinstance(b, int):
            raise RuntimeError(f"divisor fast path disagrees with quotient at d={d}")
        witnesses.append((d, b))
    return DivisorReport(subject=a, divisors=tuple(divs), witnesses=tuple(witnesses))


def k_divisors_by_scan(a: int, k: int, bound: int) -> list[int]:
    """Divisors of a (arith k) found by scanning term counts 1..bound.

    Brute-force companion to k_divisors, kept independent of it on purpose.
    """
    if a == 0:
        raise DomainError("every positive integer divides 0; report refused")
    return [d for d in range(1, bound + 1) if isinstance(k_quotient(a, d, k), int)]


def representations(a: int, k: int) -> list[Representation]:
    """Every way of writing a as a progression sum with difference k."""
    report = k_divisors(a, k)
    reps = []
    for d, b in report.witnesses:
        first = b - d + 1
        terms = tuple(first + i * k for i in range(d))
        reps.append(Representation(start=b, length=d, terms=terms))
    return reps


# The usual primes up to _sieve_limit: one process-wide sieve, empty until
# the first query.  A rebuild binds a new list; a list handed out never changes.
_sieve_limit = 1
_sieve_primes: list[int] = []
_sieve_lock = threading.Lock()


def _sieved(upto: int = 0, count: int = 0) -> list[int]:
    """The shared ascending list of usual primes, rebuilt at least twice as
    large until it holds every prime <= upto and at least ``count`` primes.
    Callers read it and never mutate it."""
    global _sieve_limit, _sieve_primes
    with _sieve_lock:
        limit, primes = _sieve_limit, _sieve_primes
        while limit < upto or len(primes) < count:
            limit = max(upto, 2 * limit)
            sieve = bytearray([1]) * (limit + 1)
            sieve[:2] = b"\0\0"
            for p in range(2, isqrt(limit) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
            primes = list(compress(range(limit + 1), sieve))
        _sieve_limit, _sieve_primes = limit, primes
        return primes


def nth_prime(i: int) -> int:
    """i-th usual prime, 1-based."""
    if i < 1:
        raise DomainError(f"prime index must be positive, got {i}")
    return _sieved(count=i)[i - 1]


def is_k_prime(p: int, k: int) -> bool:
    """True when p > 1 has exactly two divisors in the k-arithmetic."""
    if p <= 1:
        return False
    return len(k_divisors(p, k).divisors) == 2


def k_primes_below(n: int, k: int) -> list[int]:
    """Ascending k-primes p with 1 < p < n, by the closed characterization:
    usual primes for even k, powers of two for odd k.  Empty when n < 2."""
    if k % 2:
        return [1 << j for j in range(1, max(n - 1, 0).bit_length())]
    primes = _sieved(n - 1)
    return primes[: bisect_left(primes, n)]


def is_k_prime_by_characterization(p: int, k: int) -> bool:
    """Closed characterization of k-primality: usual primes for even k (trial
    division by 2 and the odd numbers up to isqrt(p), leaving the shared
    sieve untouched), powers of two for odd k.  k_divisors stays the
    definitional route."""
    if p <= 1:
        return False
    if k % 2 == 0:
        return p == 2 or (p % 2 == 1 and all(p % f for f in range(3, isqrt(p) + 1, 2)))
    return p & (p - 1) == 0


def polygonal(n: int, sides: int) -> int:
    """n-th polygonal number with the given side count, as a self-product."""
    if sides < 3:
        raise DomainError(f"polygons need at least 3 sides, got {sides}")
    if n < 1:
        raise DomainError(f"polygonal index must be positive, got {n}")
    return k_product(n, n, sides - 2)


def identity_suite(a: int, b: int, c: int, d: int, k: int) -> list[tuple[str, bool]]:
    """Evaluate the algebraic identities relating the k-product to the usual
    one, plus the associativity status of the triple (a, b, c)."""

    def mul(x: int, y: int) -> int:
        return k_product(x, y, k)

    return [
        ("commuting_pair", mul(a, 1 - a) == mul(1 - a, a)),
        ("distributive_form",
         (a - b) * (c + d) == mul(a, c) + mul(a, d) - mul(b, c) - mul(b, d)),
        ("square_sum", mul(a + b, a + b) == mul(a, a) + mul(b, b) + k * a * b),
        ("difference_square",
         (a - b) ** 2 == mul(a, a) + mul(b, b) - mul(b, a) - mul(a, b)),
        ("negation", mul(a, -b) == mul(k - 2 - a, b)),
        ("associativity", mul(mul(a, b), c) == mul(a, mul(b, c))),
    ]
