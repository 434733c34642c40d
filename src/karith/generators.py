"""Integer sequences that generate arithmetics.

Every generator yields terms a_1, a_2, ... and induces a product through the
weighted partial sum W(n) = sum over i < n of (n - i) * a_i, which each
generator answers itself (``Generator.weighted``).  By default W is read from
a per-generator memo of prefix sums and is undefined below 1.  Constants and
arithmetic progressions answer by their closed formulas at every n, and
polynomial sequences extend their memo below 1 through Newton differences.

Canonical textual forms, used by the CLI and config files:

    const:3     ap:1,2      gp:1,2      poly:1,0,5
    primes      alt         zeroone     fpattern    explicit:[1,2,3]
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb

from .core import DomainError, nth_prime


class PrefixExhaustedError(DomainError):
    """An explicit generator was read past its finite prefix."""


class GeneratorSpecError(DomainError):
    """An arithmetic spec string could not be parsed."""


class Generator:
    """Base for sequence generators; term(i) is defined for all i >= 1."""

    #: degree of the polynomial giving a_i in i, or None when there is none
    polynomial_degree: int | None = None
    #: number of terms a finite prefix holds, or None for an endless sequence
    prefix_length: int | None = None

    def term(self, i: int) -> int:
        raise NotImplementedError

    def spec(self) -> str:
        raise NotImplementedError

    def weighted(self, n: int) -> int:
        """W(n), read from the prefix-sum memo; term counts below 1 need a
        closed form, which this generator does not have."""
        if n < 1:
            raise DomainError(
                f"generator {self.spec()} has no closed form; term counts below 1 are undefined"
            )
        return self.prefix_sums().weighted(n)

    def prefix_sums(self) -> "PrefixSums":
        # One memo per generator instance; created lazily, guarded by the
        # memo's own lock once built.  Generators are immutable, so the memo
        # never goes stale; it is stored through __dict__ because frozen
        # dataclasses refuse attribute assignment.
        sums = self.__dict__.get("_sums")
        if sums is None:
            sums = PrefixSums(self)
            self.__dict__["_sums"] = sums
        return sums

    def __getstate__(self):
        # the memo holds a lock; copies and unpickled generators rebuild it
        state = dict(self.__dict__)
        state.pop("_sums", None)
        return state

    def __str__(self) -> str:
        return self.spec()


class PrefixSums:
    """Cached weighted partial sums W(n) for one generator.

    W(1) = 0 and W(n+1) - W(n) equals the plain prefix sum of the first n
    terms, so the cache grows in O(1) per new index from one running plain
    sum.  Extension is guarded by a lock; results never depend on the cache
    state.
    """

    def __init__(self, generator: Generator):
        self.generator = generator
        self._weighted = [0, 0]  # _weighted[n] = W(n); index 0 unused
        self._plain = 0  # a_1 + ... + a_m for m = len(_weighted) - 2
        self._lock = threading.Lock()

    def weighted(self, n: int) -> int:
        """W(n) for n >= 1."""
        if n < 1:
            raise DomainError(f"weighted sum needs a positive term count, got {n}")
        with self._lock:
            self._extend(n)
            return self._weighted[n]

    def weighted_upto(self, n: int) -> list[int]:
        """[0, W(1), ..., W(n)] for n >= 0, read under one lock acquisition.

        The memo grows exactly as repeated weighted() calls would grow it, so
        a finite prefix fails with the same error at the same index.
        """
        if n < 0:
            raise DomainError(f"prefix length must be >= 0, got {n}")
        with self._lock:
            self._extend(n)
            return self._weighted[: n + 1]

    def _extend(self, upto: int) -> None:
        while len(self._weighted) <= upto:
            m = len(self._weighted) - 1
            self._plain += self.generator.term(m)
            self._weighted.append(self._weighted[m] + self._plain)


@dataclass(frozen=True)
class Constant(Generator):
    k: int
    polynomial_degree = 0

    def term(self, i: int) -> int:
        return self.k

    def weighted(self, n: int) -> int:
        return (n * (n - 1) // 2) * self.k

    def spec(self) -> str:
        return f"const:{self.k}"


@dataclass(frozen=True)
class ArithProg(Generator):
    a1: int
    d: int
    polynomial_degree = 1

    def term(self, i: int) -> int:
        return self.a1 + (i - 1) * self.d

    def weighted(self, n: int) -> int:
        return (n * (n - 1) // 2) * self.a1 + (n * (n - 1) * (n - 2) // 6) * self.d

    def spec(self) -> str:
        return f"ap:{self.a1},{self.d}"


@dataclass(frozen=True)
class GeomProg(Generator):
    a1: int
    r: int

    def term(self, i: int) -> int:
        return self.a1 * self.r ** (i - 1)

    def spec(self) -> str:
        return f"gp:{self.a1},{self.r}"


@dataclass(frozen=True)
class Polynomial(Generator):
    """Terms p(0), p(1), p(2), ... of the polynomial with the given
    coefficients (constant term first)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "polynomial_degree", max(len(self.coeffs) - 1, 0))

    def term(self, i: int) -> int:
        x = i - 1
        return sum(c * x**j for j, c in enumerate(self.coeffs))

    def weighted(self, n: int) -> int:
        """W(n) from the memo for n >= 1.  Below 1, W is the polynomial of
        degree d + 2 through W(1), ..., W(d + 3), evaluated by Newton forward
        differences in the basis C(n - 1, j) = (-1)**j * C(j - n, j), which
        keeps it in exact integers."""
        if n >= 1:
            return self.prefix_sums().weighted(n)
        row = self.prefix_sums().weighted_upto(self.polynomial_degree + 3)[1:]
        total = 0
        for j in range(len(row)):
            total += row[0] * (-1) ** j * comb(j - n, j)
            row = [b - a for a, b in zip(row, row[1:])]
        return total

    def spec(self) -> str:
        return "poly:" + ",".join(str(c) for c in self.coeffs)


class _Parameterless(Generator):
    """A generator without parameters: all its instances are equal."""

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))


class UsualPrimes(_Parameterless):
    def term(self, i: int) -> int:
        return nth_prime(i)

    def spec(self) -> str:
        return "primes"


@dataclass(frozen=True)
class Explicit(Generator):
    """Finite prefix given verbatim; reading past it is an error."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def prefix_length(self) -> int:
        return len(self.terms)

    def term(self, i: int) -> int:
        if i < 1:
            raise DomainError(f"term index must be positive, got {i}")
        if i > len(self.terms):
            raise PrefixExhaustedError(
                f"explicit prefix has {len(self.terms)} terms, index {i} requested"
            )
        return self.terms[i - 1]

    def spec(self) -> str:
        return "explicit:[" + ",".join(str(t) for t in self.terms) + "]"


class AlternatingOnes(_Parameterless):
    """1, -1, 1, -1, ..."""

    def term(self, i: int) -> int:
        return 1 if i % 2 == 1 else -1

    def spec(self) -> str:
        return "alt"


class ZeroOne(_Parameterless):
    """0, 1, 0, 1, ..."""

    def term(self, i: int) -> int:
        return 0 if i % 2 == 1 else 1

    def spec(self) -> str:
        return "zeroone"


class FurstPattern(_Parameterless):
    """Blocks (1, -1, 0...0) whose zero runs have lengths 1, 3, 7, 15, ...

    Block b has total length 2**b + 1, so the blocks start at positions
    1, 4, 9, 18, 35, ...
    """

    def term(self, i: int) -> int:
        if i < 1:
            raise DomainError(f"term index must be positive, got {i}")
        start = 1
        b = 1
        while True:
            length = 2**b + 1
            if i < start + length:
                offset = i - start
                if offset == 0:
                    return 1
                if offset == 1:
                    return -1
                return 0
            start += length
            b += 1

    def spec(self) -> str:
        return "fpattern"


def supports_default_divisor_bound(g: Generator) -> bool:
    """Generators for which the 6a divisor scan bound is taken as default:
    arithmetic progressions, i.e. constants and polynomials of degree <= 1."""
    return g.polynomial_degree in (0, 1)


def parse_generator(text: str) -> Generator:
    """Parse the canonical textual form of a generator."""
    text = text.strip()
    if text == "primes":
        return UsualPrimes()
    if text == "alt":
        return AlternatingOnes()
    if text == "zeroone":
        return ZeroOne()
    if text == "fpattern":
        return FurstPattern()
    if ":" not in text:
        raise GeneratorSpecError(f"unrecognized arithmetic spec {text!r}")
    head, _, body = text.partition(":")
    try:
        if head == "const":
            return Constant(int(body))
        if head == "ap":
            a1, d = (int(x) for x in body.split(","))
            return ArithProg(a1, d)
        if head == "gp":
            a1, r = (int(x) for x in body.split(","))
            return GeomProg(a1, r)
        if head == "poly":
            return Polynomial(tuple(int(x) for x in body.split(",")))
        if head == "explicit":
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError("explicit terms must be bracketed")
            inner = body[1:-1].strip()
            terms = tuple(int(x) for x in inner.split(",")) if inner else ()
            return Explicit(terms)
    except ValueError as exc:
        raise GeneratorSpecError(f"bad arithmetic spec {text!r}: {exc}") from None
    raise GeneratorSpecError(f"unrecognized arithmetic spec {text!r}")
