"""Integer sequences that generate arithmetics.

Every generator yields terms a_1, a_2, ... and induces a product through the
weighted partial sum W(n) = sum over i < n of (n - i) * a_i.  A generator
whose terms are a polynomial in i sets ``differences`` = (a_1, Δa_1, Δ²a_1,
...) and answers W(n) = sum over m of Δᵐa_1 * C(n, m + 2) at every integer n
(``Generator.weighted``), and every divisor of a != 0 divides L * a
(``Generator.divisor_factor``).  A single difference is the constant sequence
k (const:k, ap:k,0, poly:k, gp:k,1, and gp:0,r for k = 0); ``karith.generated``
reads that fact to route such a sequence to the k-arithmetic's closed forms.
Any other W is read from a per-generator memo of prefix sums, undefined below 1.

Canonical textual forms, used by the CLI and config files:

    const:3     ap:1,2      gp:1,2      poly:1,0,5
    primes      alt         zeroone     fpattern    explicit:[1,2,3]
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb, lcm
from operator import mod

from .core import DomainError, _sieved, nth_prime


class PrefixExhaustedError(DomainError):
    """An explicit generator was read past its finite prefix."""


class GeneratorSpecError(DomainError):
    """An arithmetic spec string could not be parsed."""


class Generator:
    """Base for sequence generators; term(i) is defined for all i >= 1."""
    #: (a_1, Δa_1, Δ²a_1, ...) for polynomial terms, trailing zeros after a_1 cut; else None
    differences: tuple[int, ...] | None = None
    #: number of terms a finite prefix holds, or None for an endless sequence
    prefix_length: int | None = None

    def term(self, i: int) -> int:
        raise NotImplementedError

    def term_range(self, lo: int, hi: int) -> list[int]:
        """[term(lo), ..., term(hi - 1)], raising term's error at the first
        index term refuses; a generator with a faster bulk route overrides it.

        Polynomial terms from lo >= 1 come from the Newton column at lo,
        Δᵐa_lo = sum over t of Δ^(m+t)a_1 * C(lo - 1, t): each order is the
        running sum of the order above it, one accumulate per order.
        """
        diffs = self.differences
        if diffs is None or lo < 1 or hi <= lo:
            return [self.term(i) for i in range(lo, hi)]
        column = [sum(delta * comb(lo - 1, t) for t, delta in enumerate(diffs[m:]))
                  for m in range(len(diffs))]
        row = [column[-1]] * (hi - lo)
        for start in reversed(column[:-1]):
            row = list(accumulate(islice(row, hi - lo - 1), initial=start))
        return row

    def spec(self) -> str:
        raise NotImplementedError

    @property
    def divisor_factor(self) -> int | None:
        """L = lcm(2, ..., len(differences) + 1) for polynomial terms, else None.
        The divisor lemma: W(d) sums multiples of C(d, j) for j from 2 to that
        bound, and j * C(d, j) = d * C(d - 1, j - 1), so d divides L * W(d); a
        term count d dividing a != 0 divides a - W(d), hence L * a."""
        diffs = self.differences
        return None if diffs is None else lcm(*range(2, len(diffs) + 2))

    def weighted(self, n: int) -> int:
        """W(n) = sum of Δᵐa_1 * C(n, m + 2) for polynomial terms, else the memo
        from n = 1 on.  Newton's a_i = sum of Δᵐa_1 * C(i - 1, m) and the identity
        sum over t < N of (N - t) * C(t, m) = C(N + 1, m + 2) give it for n >= 1;
        a polynomial in n, it is also W below 1.  C(n, j) is an integer at every
        n, so C(n, j + 1) = C(n, j) * (n - j) / (j + 1) steps in exact integers."""
        diffs = self.differences
        if diffs is not None:
            binom = n * (n - 1) // 2
            total = diffs[0] * binom
            j = 2  # a counter beats enumerate on the hot one- and two-term sums
            for delta in diffs[1:]:
                binom = binom * (n - j) // (j + 1)
                total += delta * binom
                j += 1
            return total
        if n < 1:
            raise DomainError(f"generator {self.spec()} has no closed form; "
                              "term counts below 1 are undefined")
        return self.prefix_sums().weighted(n)

    def prime_limit(self, window_half: int) -> tuple[int, bool]:
        """Prime limit for covering [-N, N], and whether it is a guess: when
        every term is k, primes up to 2N suffice (a value of magnitude >= 2 has
        a k-prime divisor at most twice it); elsewhere 2N is only a default."""
        if self.differences is None or len(self.differences) > 1:
            return 2 * window_half, True
        return 2 * window_half + 1, False

    def prefix_sums(self) -> "PrefixSums":
        # One memo per generator instance, created lazily; setdefault keeps
        # the first one stored when threads race to create it.  Generators are
        # immutable, so the memo never goes stale; it is stored through
        # __dict__ because frozen dataclasses refuse attribute assignment.
        sums = self.__dict__.get("_sums")
        if sums is None:
            sums = self.__dict__.setdefault("_sums", PrefixSums(self))
        return sums

    def __getstate__(self):
        # the memo holds a lock; copies and unpickled generators rebuild it
        state = dict(self.__dict__)
        state.pop("_sums", None)
        return state

    def __str__(self) -> str:
        return self.spec()


class PrefixSums:
    """Cached weighted partial sums W(n) for one generator, and their residues.

    Two reads: ``weighted(n)`` and the residue table's ``residues_upto(n)``.
    W(1) = 0 and W(n + 1) - W(n) = S(n), the sum of the first n terms, so
    the memo grows from its last two entries: one ``term_range`` read, then
    one ``accumulate`` pass for S from S(m - 1) = W(m) - W(m - 1) and one for
    W.  It grows under a lock, in place and only as far as the index asked
    for, which keeps a finite prefix's error at the index a term-by-term
    read would reach.  Written entries never change, so a read the memo
    already covers takes no lock.  Results never depend on the memo's state.

    The residue table holds W(d) mod d for each term count d, the one number
    a divisor scan or census needs from W(d).  Only ``residues_upto`` grows
    it, from W values the memo already holds, so products, quotients and
    self-products never build it.  A list of small ints, it costs about 40
    bytes per entry on top of the memo (40 MB at 10⁶ term counts).
    """

    def __init__(self, generator: Generator):
        self.generator = generator
        self._weighted = [0, 0]  # _weighted[n] = W(n); index 0 unused
        self._residues = [0]  # _residues[d] = W(d) mod d; index 0 unused
        self._lock = threading.Lock()

    def weighted(self, n: int) -> int:
        """W(n) for n >= 1."""
        if n < 1:
            raise DomainError(f"weighted sum needs a positive term count, got {n}")
        memo = self._weighted
        if n >= len(memo):
            with self._lock:
                self._extend(n)
        return memo[n]

    def residues_upto(self, n: int) -> list[int]:
        """[0, W(1) mod 1, ..., W(n) mod n] for n >= 0, in one read.

        It grows the memo as far as weighted(n) does, so a finite prefix fails
        with the same error at the same index, then the table from the memo.
        """
        table = self._residues
        if n >= len(table):
            with self._lock:
                self._extend(n)
                m = len(table)
                table.extend(map(mod, self._weighted[m : n + 1], range(m, n + 1)))
        elif n < 0:
            raise DomainError(f"prefix length must be >= 0, got {n}")
        return table[: n + 1]

    def _extend(self, upto: int) -> None:
        memo = self._weighted
        m = len(memo) - 1
        if upto > m:
            plain = accumulate(self.generator.term_range(m, upto), initial=memo[m] - memo[m - 1])
            memo.extend(islice(accumulate(plain, initial=memo[m - 1]), 2, None))  # W(m + 1), ...


@dataclass(frozen=True)
class Constant(Generator):
    k: int

    def __post_init__(self):
        object.__setattr__(self, "differences", (self.k,))

    def term(self, i: int) -> int:
        return self.k

    def spec(self) -> str:
        return f"const:{self.k}"


@dataclass(frozen=True)
class ArithProg(Generator):
    a1: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "differences", (self.a1, self.d) if self.d else (self.a1,))

    def term(self, i: int) -> int:
        return self.a1 + (i - 1) * self.d

    def spec(self) -> str:
        return f"ap:{self.a1},{self.d}"


@dataclass(frozen=True)
class GeomProg(Generator):
    a1: int
    r: int

    def __post_init__(self):
        if self.r == 1 or self.a1 == 0:
            object.__setattr__(self, "differences", (self.a1,))

    def term(self, i: int) -> int:
        if i >= 1:
            return self.a1 * self.r ** (i - 1)
        if self.differences is None:
            raise DomainError(f"term index must be positive, got {i}")
        return self.a1  # every term is a1, as for Constant

    def spec(self) -> str:
        return f"gp:{self.a1},{self.r}"


@dataclass(frozen=True)
class Polynomial(Generator):
    """Terms p(0), p(1), p(2), ... of the polynomial with the given
    coefficients (constant term first)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        row = [self.term(i) for i in range(1, len(self.coeffs) + 2)]
        diffs = []
        while row:
            diffs.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        last = max((m for m, x in enumerate(diffs) if x), default=0)
        object.__setattr__(self, "differences", tuple(diffs[: last + 1]))

    def term(self, i: int) -> int:
        x = i - 1
        return sum(c * x**j for j, c in enumerate(self.coeffs))

    def spec(self) -> str:
        return "poly:" + ",".join(str(c) for c in self.coeffs)


@dataclass(frozen=True)
class UsualPrimes(Generator):
    def term(self, i: int) -> int:
        return nth_prime(i)

    def term_range(self, lo: int, hi: int) -> list[int]:
        if lo < 1:
            return super().term_range(lo, hi)  # term's error, if the range is not empty
        return _sieved(count=hi - 1)[lo - 1 : hi - 1]

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


@dataclass(frozen=True)
class AlternatingOnes(Generator):
    """1, -1, 1, -1, ..."""

    def term(self, i: int) -> int:
        return 1 if i % 2 == 1 else -1

    def spec(self) -> str:
        return "alt"


@dataclass(frozen=True)
class ZeroOne(Generator):
    """0, 1, 0, 1, ..."""

    def term(self, i: int) -> int:
        return 0 if i % 2 == 1 else 1

    def spec(self) -> str:
        return "zeroone"


@dataclass(frozen=True)
class FurstPattern(Generator):
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
