"""Exact k-arithmetic on integers.

The k-arithmetic product of m by n is the sum of n terms of an arithmetic
progression with common difference k whose first term is m - n + 1:

    product(m, n, k) = (m - n + 1) * n + n * (n - 1) * k / 2

k = 2 recovers ordinary multiplication.  Other values of k induce their own
notions of quotient, divisor and prime, computed here in exact arbitrary
precision: no floats anywhere, failed quotients carry their exact rational.

The prime sets are closed: the usual primes for even k, the powers of two
for odd k.  The same argument settles every divisor.  For even k the
divisors of a are the usual divisors of |a|.  For odd k they are the odd
divisors o of |a| and the numbers 2**(v+1) * o, where 2**v exactly divides
a.  Each witness is (2a/d + (d - 1)(2 - k)) / 2.  So `k_divisors` factors
|a| once and lists only those divisors; `k_divisors_by_scan` stays the
brute-force check.

Divisor reports rest on usual factorization.  One gcd with the product of
the primes below 257 finds the small prime factors, so a cofactor below 257**2
is prime.  A larger one gets strong-probable-prime tests on the first j of the
bases 2, 3, ..., 41, where psi_j, the least strong pseudoprime to all j, is
the first bound above it (Jaeschke 1993; Sorenson & Webster 2015 for psi_12
and psi_13 = 3317044064679887385961981).  At or above psi_13 the primes 43 to
97 are tried too: a probable prime there is refused as unproven, and Brent's
rho splits proven composites.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import compress
from math import gcd, isqrt, prod

TYPE_CHECKING = False  # read as true by type checkers; never imports typing
if TYPE_CHECKING:
    from fractions import Fraction


class DomainError(ValueError):
    """An operation was called outside its defined domain."""


_set = object.__setattr__  # keeps a fresh instance's attributes in its inline values


#: what a record reads from its dataclass twin
_TWIN_NAMES = ("__repr__", "__eq__", "__hash__", "__match_args__", "__dataclass_fields__",
               "__dataclass_params__") + (("__replace__",) if sys.version_info >= (3, 13) else ())


def _record(cls):
    """Make cls a frozen record of the fields it annotates, as
    ``@dataclass(frozen=True)`` would, without importing ``dataclasses`` to
    build a record or read its fields.

    The record writes three methods: ``__init__``, whose one path of its own
    is one positional value per field, then ``__post_init__``, so the results
    built on every call pass their fields that way; and a
    ``__setattr__``/``__delattr__`` that raise
    ``dataclasses.FrozenInstanceError``.  The rest is the record's dataclass
    twin's: it binds, or refuses with its ``TypeError``, any other
    ``__init__`` call (keywords, omitted defaults, a call Python would
    refuse), and its own ``_TWIN_NAMES`` are copied onto the record on their
    first read.  A name the class defines itself is kept.
    """
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    has_post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = vars(_dataclass_twin(cls)(*args, **kwargs)).values()
        for name, value in zip(names, args):
            _set(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __setattr__, __delattr__):
        if method.__name__ not in own:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    for name in _TWIN_NAMES:
        if name not in own:
            setattr(cls, name, _FromTwin(cls, name))
    return cls


@cache
def _dataclass_twin(cls):
    """A frozen dataclass, built by ``dataclasses`` once per record, of the
    record's fields and defaults, under the record's name."""
    import dataclasses

    own = cls.__dict__
    fields = [(name, annotation, own[name]) if name in own else (name, annotation)
              for name, annotation in own.get("__annotations__", {}).items()]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


class _FromTwin:
    """A record's attribute that its dataclass twin supplies.  The first read
    sets the twin's own value on the record class in this descriptor's place;
    a function is bound to the instance it is read from."""

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, instance, owner=None):
        value = getattr(_dataclass_twin(self.cls), self.name)
        setattr(self.cls, self.name, value)
        return value.__get__(instance, owner) if callable(value) else value


@_record
class NotDivisible:
    """Failed exact quotient.  Carries the exact rational for diagnostics."""

    ratio: Fraction

    def __str__(self) -> str:
        return f"NotDivisible {self.ratio}"


@_record
class DivisorReport:
    """Positive divisors of ``subject`` in a given arithmetic.

    ``witnesses`` pairs each divisor d with the start value b such that
    the product of b by d equals the subject.  ``search_bound`` records the
    largest term count a sequence-generated report covers: the caller's
    bound, or D * |a| for the factor D of ``Generator.divisor_lemma``; it
    is None when the k-arithmetic's closed characterization was used.
    """

    subject: int
    divisors: tuple[int, ...]
    witnesses: tuple[tuple[int, int], ...]
    search_bound: int | None = None


@_record
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


def _start_value(a: int, b: int, w: int) -> int | NotDivisible:
    """Start value c = (a - w) / b + b - 1 of the quotient of a by the term
    count b != 0 whose weighted sum W(b) is w, or NotDivisible of that rational."""
    q, r = divmod(a - w, b)
    if r == 0:
        return q + b - 1
    import fractions  # loaded by the first inexact quotient only

    return NotDivisible(fractions.Fraction(a - w, b) + b - 1)


def k_quotient(a: int, b: int, k: int) -> int | NotDivisible:
    """Start value c with product(c, b, k) == a, or NotDivisible.

    The exact rational is (a - k * C(b, 2)) / b + b - 1; it is returned
    inside NotDivisible when it is not an integer.  b = 0 is a domain error.
    """
    if b == 0:
        raise DomainError("quotient by zero term count")
    return _start_value(a, b, k * (b * (b - 1) // 2))


def k_divides(d: int, a: int, k: int) -> bool:
    """True when d is a positive term count representing a in the k-arithmetic.

    Tests whether 2d divides 2a + d(d - 1)(2 - k), which is 2d times the
    start value, so no quotient or Fraction is built.
    """
    return d > 0 and (2 * a + d * (d - 1) * (2 - k)) % (2 * d) == 0


# The primes below 257.  The first 13 are the strong-probable-prime bases:
# the first j of them prove primality below _PSI[j - 1], the least strong
# pseudoprime to all j (Jaeschke 1993; Sorenson & Webster 2015 for psi_12 and
# psi_13).  Twelve bases do not suffice below psi_13: psi_12 = 399165290221 *
# 798330580441 passes every base up to 37.  At or above psi_13 the primes 43 to
# 97 are tried as well; a failing base still proves compositeness (base 43
# refutes psi_13 itself), but passing proves nothing.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
                 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
                 229, 233, 239, 241, 251)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_BASES = _SMALL_PRIMES[:13]
_MORE_BASES = _SMALL_PRIMES[13:25]
_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
        341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
        3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
        318_665_857_834_031_151_167_461, _PROVEN_BELOW)


def _is_prime(n: int) -> bool:
    """Exact primality of n.  A composite verdict is a proof at any size; a
    probable prime at or above _PROVEN_BELOW is a DomainError, not a verdict."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    unproven = n >= _PROVEN_BELOW
    for a in _BASES + _MORE_BASES if unproven else _BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if unproven:
        raise DomainError(f"primality of {n} is not proven: it is a strong probable "
                          f"prime to every prime base up to {_MORE_BASES[-1]}")
    return True


def _split(m: int) -> int:
    """A proper factor of the odd composite m, by Brent's rho (Brent 1980) on
    x*x + c for c = 1, 2, ... in turn, so no answer depends on random state."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                done += 128
            r *= 2
        if g == m:
            # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def _factorization(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1: the primes below 257 that
    divide n, found with one gcd, in ascending order, then the larger ones."""
    factors: dict[int, int] = {}
    g = gcd(n, _SMALL_PRODUCT)  # the primes below 257 that divide n, each once
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < 257 * 257 or _is_prime(m):  # every prime factor of m is at least 257
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _split(m)
            rest += (f, m // f)
    return factors


def _divisors_of(factors: dict[int, int]) -> list[int]:
    """The positive divisors of the product of p**e over {p: e}, unsorted."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * q for q in [p**i for i in range(e + 1)] for d in divs]
    return divs


def usual_divisors(n: int) -> list[int]:
    """Ascending positive divisors of n >= 1, from its prime factorization."""
    if n < 1:
        raise DomainError(f"usual_divisors needs n >= 1, got {n}")
    return sorted(_divisors_of(_factorization(n)))


def k_divisors(a: int, k: int) -> DivisorReport:
    """All divisors of a in the k-arithmetic, with their start-value witnesses.

    d divides a exactly when 2d divides 2a + d(d - 1)(2 - k), with witness
    (2a/d + (d - 1)(2 - k)) / 2.  So the divisors follow from the usual
    factorization of |a|.  For even k they are the usual divisors of |a|.
    For odd k they are the odd divisors o of |a| and the numbers 2**(v+1) * o,
    where 2**v exactly divides a.  Either set is closed under d -> N/d, with
    N = |a| for even k and 2|a| for odd k, so the divisor mirrored in the
    sorted list gives 2a/d with no division.  Witnesses are for the signed
    subject; a = 0 is refused (every odd term count divides 0).
    """
    if a == 0:
        raise DomainError("every odd term count divides 0; report refused")
    factors = _factorization(abs(a))
    if k % 2:
        shift = factors.pop(2, 0) + 1
        odd = _divisors_of(factors)
        divs = sorted(odd + [o << shift for o in odd])
        scale = -1 if a < 0 else 1  # 2a/d = scale * (2|a|/d)
    else:
        divs = sorted(_divisors_of(factors))
        scale = -2 if a < 0 else 2  # 2a/d = scale * (|a|/d)
    c = 2 - k
    witnesses = tuple([(d, (scale * e + (d - 1) * c) >> 1) for d, e in zip(divs, reversed(divs))])
    return DivisorReport(a, tuple(divs), witnesses, None)


def k_divisors_by_scan(a: int, k: int, bound: int) -> list[int]:
    """Divisors of a (arith k) found by scanning term counts 1..bound.

    Brute-force companion to k_divisors, kept independent of it on purpose.
    """
    if a == 0:
        raise DomainError("every odd term count divides 0; report refused")
    if bound < 1:
        raise DomainError(f"search bound must be positive, got {bound}")
    return [d for d in range(1, bound + 1) if k_divides(d, a, k)]


def representations(a: int, k: int) -> list[Representation]:
    """Every way of writing a as a progression sum with difference k."""
    report = k_divisors(a, k)
    reps = []
    for d, b in report.witnesses:
        first = b - d + 1
        terms = tuple(first + i * k for i in range(d))
        reps.append(Representation(b, d, terms))  # start, length, terms
    return reps


# The usual primes up to _sieve_limit: one process-wide sieve, empty until
# the first query.  A rebuild binds a new list; a list handed out never changes.
# _sieve_bits holds the same primes as one int, bit p set exactly when p is
# prime, or None until the first _sieved_bits call after a rebuild.
_sieve_limit = 1
_sieve_primes: list[int] = []
_sieve_bits: int | None = None
_sieve_lock = threading.Lock()


def _sieved(upto: int = 0, count: int = 0) -> list[int]:
    """The shared ascending list of usual primes, rebuilt at least twice as
    large until it holds every prime <= upto and at least ``count`` primes.
    Callers read it and never mutate it."""
    global _sieve_limit, _sieve_primes, _sieve_bits
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
        if primes is not _sieve_primes:
            _sieve_limit, _sieve_primes, _sieve_bits = limit, primes, None
        return primes


def _sieved_bits(upto: int) -> tuple[list[int], int]:
    """The shared primes list, holding every prime <= upto, and its bitset:
    bit p is set exactly when p is a prime up to the sieve's limit.  The
    bitset is built once per sieve rebuild, on the first call after it, so
    growth that no caller of this reads never pays for one."""
    global _sieve_bits
    _sieved(upto)
    with _sieve_lock:
        if _sieve_bits is None:
            top = _sieve_limit
            digits = bytearray(b"0") * (top + 1)  # digits[top - p] is bit p
            for p in _sieve_primes:
                digits[top - p] = 49  # ord("1")
            _sieve_bits = int(digits, 2)
        return _sieve_primes, _sieve_bits


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
    """Closed characterization of k-primality: usual primes for even k (the
    Miller-Rabin kernel behind usual_divisors, which leaves the shared sieve
    untouched), powers of two for odd k.  k_divisors stays the definitional
    route."""
    if k % 2 == 0:
        return _is_prime(p)
    return p > 1 and p & (p - 1) == 0


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
