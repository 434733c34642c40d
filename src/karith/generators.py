"""Integer sequences that generate arithmetics.

Every generator yields terms a_1, a_2, ... and induces a product through the
weighted partial sum W(n) = sum over i < n of (n - i) * a_i.  A generator
whose terms are a polynomial in i sets ``differences`` = (a_1, Δa_1, Δ²a_1,
...), which only this module reads, and answers W(n) = sum over m of Δᵐa_1 *
C(n, m + 2) at every integer n (``Generator.weighted``).  Other modules route
on ``Generator.divisor_lemma`` and its ``sharp_factor``: every spelling of the
constant sequence k (const:k, ap:k,0, poly:k, gp:k,1, and gp:0,r for k = 0) has
``K_LEMMA``, which sends it to the k-arithmetic's closed forms.
Any other W is read from a memo of prefix sums, undefined below 1: one per
generator instance, bar ``primes``, whose instances share one process-wide memo.
``Generator.weighted_range(n)`` reads W(1), ..., W(n) at once, two running
sums of the terms or one slice of the memo, so the self-products i*i = i + W(i)
and (i*i)*i = (w + 1) * i + w, w = W(i), cost one read per list.

Canonical textual forms, used by the CLI and config files:

    const:3     ap:1,2      gp:1,2      poly:1,0,5
    primes      alt         zeroone     fpattern    explicit:[1,2,3]
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, islice
from math import comb, gcd, lcm
from operator import floordiv, mod

from .core import DomainError, _record, _set, _sieved, nth_prime

#: the divisor lemma of every constant sequence k: 2 * W(d) = k * d * (d - 1)
K_LEMMA = (1, 2, (0,))


class PrefixExhaustedError(DomainError):
    """An explicit generator was read past its finite prefix."""


class GeneratorSpecError(DomainError):
    """An arithmetic spec string could not be parsed."""


class Generator:
    """Base for sequence generators; term(i) is defined for all i >= 1."""
    #: (a_1, Δa_1, Δ²a_1, ...) for polynomial terms, trailing zeros after a_1 cut; else None
    differences: tuple[int, ...] | None = None
    #: (P, D, (c_0, ..., c_{P-1})) when D * W(d) ≡ c_r (mod d) for every term count
    #: d ≡ r (mod P), else None.  Degree j gives (1, L, (0,)), L = lcm(2, ..., j + 2),
    #: K_LEMMA for j = 0: W(d) sums Δᵐa_1 * C(d, m + 2) and i * C(d, i) = d * C(d - 1,
    #: i - 1), so the least D with m + 2 | D * Δᵐa_1 for every m, E, holds too.
    divisor_lemma: tuple[int, int, tuple[int, ...]] | None = None
    #: E = lcm over m of (m + 2) / gcd(m + 2, Δᵐa_1) for polynomial terms (E | L), else
    #: None.  Candidates from E·|a|, default bound L·|a|, censuses sieve at min(F, E).
    sharp_factor: int | None = None
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

    def _set_differences(self, diffs: tuple[int, ...]) -> None:
        """Set ``differences`` and the two facts read from them, once per instance."""
        _set(self, "differences", diffs)
        if len(diffs) == 1:  # the constant a_1: E = 2 / gcd(2, a_1)
            _set(self, "divisor_lemma", K_LEMMA)
            _set(self, "sharp_factor", 2 // gcd(2, diffs[0]))
            return
        orders = range(2, len(diffs) + 2)  # m + 2 for each Δᵐa_1
        _set(self, "divisor_lemma", (1, lcm(*orders), (0,)))
        _set(self, "sharp_factor", lcm(*map(floordiv, orders, map(gcd, orders, diffs))))

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

    def weighted_range(self, n: int) -> list[int]:
        """[W(1), ..., W(n)] for n >= 1 in one read.  W(1) = 0 and W(i + 1) =
        W(i) + S(i), S(i) the sum of the first i terms, so polynomial terms
        take two running sums over term_range(1, n), whose Newton column at 1
        is ``differences`` itself; any other sequence grows its memo once and
        slices it (``PrefixSums.weighted_upto``)."""
        if n < 1:
            raise DomainError(f"weighted range needs a positive term count, got {n}")
        if self.differences is None:
            return self.prefix_sums().weighted_upto(n)
        return list(accumulate(accumulate(self.term_range(1, n)), initial=0))

    def prime_limit(self, window_half: int) -> int:
        """Proven prime limit for covering [-N, N]: under K_LEMMA a divisor of
        h divides D * h - c_r, so primes below D * N + max|c_r| + 1 = 2N + 1
        suffice.  No other sequence has a proven limit yet: DomainError."""
        if self.divisor_lemma != K_LEMMA:
            raise DomainError(f"no covering prime limit is known for {self.spec()}; "
                              "pass a prime limit explicitly")
        _, factor, classes = K_LEMMA
        return factor * window_half + max(map(abs, classes)) + 1

    def prefix_sums(self) -> "PrefixSums":
        # One memo per instance (UsualPrimes returns its process-wide one), made
        # lazily; setdefault keeps the first one stored when threads race.
        # Generators are immutable, so the memo never goes stale; it is stored in
        # __dict__ because records (core._record) refuse attribute assignment.
        sums = self.__dict__.get("_sums")
        if sums is None:
            sums = self.__dict__.setdefault("_sums", PrefixSums(self))
        return sums

    def __getstate__(self):
        # fields only: copies and unpickled generators rebuild the memo, which holds
        # a lock (bar primes twins, which read the process-wide one), and the facts
        rebuilt = ("_sums", "differences", "divisor_lemma", "sharp_factor")
        return {name: value for name, value in self.__dict__.items() if name not in rebuilt}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __str__(self) -> str:
        return self.spec()


def _with_count(cap: int, counts: list[int], low: int) -> list[int]:
    """The subjects low + i, ascending, whose count counts[i] is cap."""
    return list(compress(range(low, low + len(counts)), map(cap.__eq__, counts)))


class PrefixSums:
    """Cached weighted partial sums W(n) for one generator instance (or for
    every ``primes`` instance at once), their residues, the divisor counts
    a census reads and two inverted reads of those.

    Eight reads: ``weighted(n)``, its bulk form ``weighted_upto(n)``, the
    residue table's ``residues_upto(n)`` and live ``residue_table(n)``, the
    residue index's ``residue_matches(r, n)``, the divisor-count table's
    ``divisor_counts(factor, limit)`` with its member lists ``census(factor,
    cap, limit)``, and ``readable(n)``, how far the terms allow any of them.
    W(1) = 0 and W(n + 1) - W(n) = S(n), the sum of the first n terms, so
    the memo grows from its last two entries: one ``term_range`` read, then
    one ``accumulate`` pass for S from S(m - 1) = W(m) - W(m - 1) and one for
    W.  It grows under a lock, in place and only as far as the index asked
    for, which keeps a finite prefix's error at the index a term-by-term
    read would reach.  Written entries never change, so a read the memo
    already covers takes no lock.  Results never depend on the memo's state.

    The residue table holds W(d) mod d for each term count d, the one number
    a divisor scan or census needs from W(d).  Only scans and censuses grow
    it, from W values the memo already holds, so products, quotients and
    self-products never build it.  A list of small ints, it costs about 40
    bytes per entry on top of the memo (40 MB at 10⁶ term counts).

    The residue index inverts the table for divisor scans: the term counts
    it covers, sorted by their entries in the live table, in a few runs,
    each over a later stretch of term counts than the one before it.  The
    sorts are stable, so each run ascends in (W(d) mod d, d).  A term count
    d > a divides a exactly when W(d) mod d == a, so two bisects per run,
    keyed by the table, find them all.  Only a scan that reaches past it
    grows it: the new term counts are sorted into a run of their own, which
    is merged with the last run while that run is at most twice as long
    (two sorted runs: one ``list.sort`` merge in C).  The runs halve in
    length, so there are at most log2(n) of them, and a bound that grows by
    one costs O(log n) amortized, not a re-sort.  Its term counts cost
    about 40 bytes an entry, as the table does.

    A census's divisor-count table, one per factor sieved, costs 8 bytes per
    subject and reads residues up to factor * limit.  Beside it sits one
    member list per (factor, divisor count) asked for: the ascending
    subjects with that count, extended with the table, so a warm census is
    one bisect and a copy of its answer.

    The index, the count tables and the member lists grow under the lock
    and are published by one rebinding or one ``extend`` of final entries,
    so a read that sees a length or a binding also sees every entry it
    covers, and takes no lock.
    """

    def __init__(self, generator: Generator):
        self.generator = generator
        self._weighted = [0, 0]  # _weighted[n] = W(n); index 0 unused
        self._residues = [0]  # _residues[d] = W(d) mod d; index 0 unused
        self._index = (0, ())  # (m, runs): the residue index over term counts 1..m
        self._counts = {}  # _counts[factor][n]: see divisor_counts; 0 and 1 unused
        self._members = {}  # _members[factor, cap]: see census
        self._lock = threading.RLock()

    def weighted(self, n: int) -> int:
        """W(n) for n >= 1."""
        if n < 1:
            raise DomainError(f"weighted sum needs a positive term count, got {n}")
        memo = self._weighted
        if n >= len(memo):
            with self._lock:
                self._extend(n)
        return memo[n]

    def weighted_upto(self, n: int) -> list[int]:
        """[W(1), ..., W(n)] for n >= 1, in one read: weighted(n) grows the
        memo, and written entries never change, so the slice takes no lock."""
        self.weighted(n)
        return self._weighted[1 : n + 1]

    def residues_upto(self, n: int) -> list[int]:
        """[0, W(1) mod 1, ..., W(n) mod n] for n >= 0, a copy of
        ``residue_table(n)`` cut at n."""
        return self.residue_table(n)[: n + 1]

    def residue_table(self, n: int) -> list[int]:
        """The live residue table, entry d = W(d) mod d, grown to hold entry
        n >= 0 and perhaps longer; entries never change.

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
        return table

    def residue_matches(self, r: int, n: int) -> list[int]:
        """Ascending term counts r < d <= n with W(d) mod d == r, for r >= 0
        and an n whose residues the terms allow, from the residue index,
        grown first to cover n.  The runs cover successive stretches, so
        their matches in turn ascend, and those up to n are a prefix."""
        if self._index[0] < n:
            with self._lock:
                self._grow_index(n)
        key, found = self._residues.__getitem__, []
        for run in self._index[1]:
            i = bisect_left(run, r, key=key)
            found += run[i : bisect_right(run, r, i, key=key)]
        return found[: bisect_right(found, n)]

    def _grow_index(self, n: int) -> None:
        covered, runs = self._index
        if covered < n:
            key = self.residue_table(n).__getitem__
            run = sorted(range(covered + 1, n + 1), key=key)
            runs = list(runs)
            while runs and len(runs[-1]) <= 2 * len(run):
                run = runs.pop() + run
                run.sort(key=key)
            self._index = (n, (*runs, run))

    def readable(self, n: int) -> int:
        """The largest D <= n whose W(D) the terms allow: W(D) reads the first
        D - 1 terms, so a prefix of P terms allows P + 1."""
        prefix = self.generator.prefix_length
        return n if prefix is None else min(n, prefix + 1)

    def divisor_counts(self, factor: int, limit: int) -> list[int]:
        """A table whose entry n, for 2 <= n < limit, counts the term counts
        d <= factor * n that ``readable`` allows with W(d) ≡ n (mod d).
        Entries never change, so the table grows under the lock to the limit
        asked, over the new subjects only, and is published by one ``extend``
        after every member list of its factor has taken the new subjects: a
        read that sees the length also sees final counts and members."""
        counts = self._counts.get(factor)
        if counts is None or len(counts) < limit:
            with self._lock:
                counts = self._counts.setdefault(factor, [0, 0])
                low = len(counts)
                if low < limit:
                    grown = self._sieve(factor, low, limit)
                    for (f, cap), members in self._members.items():
                        if f == factor:
                            members.extend(_with_count(cap, grown, low))
                    counts.extend(grown)
        return counts

    def census(self, factor: int, cap: int, limit: int) -> list[int]:
        """Ascending subjects 2 <= n < limit whose ``divisor_counts(factor,
        limit)`` entry is cap: one bisect of the (factor, cap) member list,
        built over the whole table on the first census that asks for it."""
        self.divisor_counts(factor, limit)
        members = self._members.get((factor, cap))
        if members is None:
            with self._lock:
                members = self._members.get((factor, cap))
                if members is None:
                    counts = self._counts[factor]
                    members = self._members[factor, cap] = _with_count(cap, counts[2:], 2)
        return members[: bisect_left(members, limit)]

    def _sieve(self, factor: int, low: int, limit: int) -> list[int]:
        """Entries low..limit - 1 of the table, low >= 2.  Term count d divides
        exactly the n ≡ W(d) (mod d), and reaches those with n >= d / factor;
        a d past the last subject reaches at most n = W(d) mod d, one read."""
        readable = self.readable(factor * (limit - 1))
        residues = self.residues_upto(readable)  # the lock is reentrant
        grown = [0] * (limit - low)  # grown[n - low] counts subject n
        split = min(readable, limit - 1)
        for d in range(1, split + 1):
            lo = max(low, -(-d // factor))
            for i in range(lo + (residues[d] - lo) % d - low, limit - low, d):
                grown[i] += 1
        for d, n in zip(range(split + 1, readable + 1), residues[split + 1:]):
            if low <= n < limit and d <= factor * n:
                grown[n - low] += 1
        return grown

    def _extend(self, upto: int) -> None:
        memo = self._weighted
        m = len(memo) - 1
        if upto > m:
            plain = accumulate(self.generator.term_range(m, upto), initial=memo[m] - memo[m - 1])
            memo.extend(islice(accumulate(plain, initial=memo[m - 1]), 2, None))  # W(m + 1), ...


@_record
class Constant(Generator):
    k: int

    def __post_init__(self):
        self._set_differences((self.k,))

    def term(self, i: int) -> int:
        return self.k

    def spec(self) -> str:
        return f"const:{self.k}"


@_record
class ArithProg(Generator):
    a1: int
    d: int

    def __post_init__(self):
        self._set_differences((self.a1, self.d) if self.d else (self.a1,))

    def term(self, i: int) -> int:
        return self.a1 + (i - 1) * self.d

    def spec(self) -> str:
        return f"ap:{self.a1},{self.d}"


@_record
class GeomProg(Generator):
    a1: int
    r: int

    def __post_init__(self):
        if self.r == 1 or self.a1 == 0:
            self._set_differences((self.a1,))

    def term(self, i: int) -> int:
        if i >= 1:
            return self.a1 * self.r ** (i - 1)
        if self.differences is None:
            raise DomainError(f"term index must be positive, got {i}")
        return self.a1  # every term is a1, as for Constant

    def spec(self) -> str:
        return f"gp:{self.a1},{self.r}"


@_record
class Polynomial(Generator):
    """Terms p(0), p(1), p(2), ... of the polynomial with the given
    coefficients (constant term first; none is the zero polynomial)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs) or (0,))
        row = [self.term(i) for i in range(1, len(self.coeffs) + 2)]
        diffs = []
        while row:
            diffs.append(row[0])
            row = [b - a for a, b in zip(row, row[1:])]
        last = max((m for m, x in enumerate(diffs) if x), default=0)
        self._set_differences(tuple(diffs[: last + 1]))

    def term(self, i: int) -> int:
        x = i - 1
        return sum(c * x**j for j, c in enumerate(self.coeffs))

    def spec(self) -> str:
        return "poly:" + ",".join(str(c) for c in self.coeffs)


@_record
class UsualPrimes(Generator):
    def term(self, i: int) -> int:
        return nth_prime(i)

    def term_range(self, lo: int, hi: int) -> list[int]:
        if lo < 1:
            return super().term_range(lo, hi)  # term's error, if the range is not empty
        return _sieved(count=hi - 1)[lo - 1 : hi - 1]

    def prefix_sums(self) -> "PrefixSums":
        return _PRIME_SUMS  # every instance reads one memo, as it reads one sieve

    def spec(self) -> str:
        return "primes"


#: the process-wide memo of every UsualPrimes; like the sieve, it stays resident
_PRIME_SUMS = PrefixSums(UsualPrimes())


@_record
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


@_record
class AlternatingOnes(Generator):
    """1, -1, 1, -1, ..."""

    def term(self, i: int) -> int:
        return 1 if i % 2 == 1 else -1

    def spec(self) -> str:
        return "alt"


@_record
class ZeroOne(Generator):
    """0, 1, 0, 1, ..."""

    def term(self, i: int) -> int:
        return 0 if i % 2 == 1 else 1

    def spec(self) -> str:
        return "zeroone"


@_record
class FurstPattern(Generator):
    """Blocks (1, -1, 0...0) whose zero runs have lengths 1, 3, 7, 15, ...

    Block b has total length 2**b + 1, so the blocks start at positions
    2**b + b - 2 = 1, 4, 9, 18, 35, ..., and term i sits in block
    i.bit_length() - 1 (at least 1) or, below that block's start, the one
    before it.
    """

    def term(self, i: int) -> int:
        if i < 1:
            raise DomainError(f"term index must be positive, got {i}")
        b = max(1, i.bit_length() - 1)
        if (1 << b) + b - 2 > i:
            b -= 1
        offset = i - (1 << b) - b + 2
        return 1 if offset == 0 else -1 if offset == 1 else 0

    def spec(self) -> str:
        return "fpattern"


_NAMED = {"primes": UsualPrimes, "alt": AlternatingOnes, "zeroone": ZeroOne,
          "fpattern": FurstPattern}
_PAIRS = {"ap": ArithProg, "gp": GeomProg}


def parse_generator(text: str) -> Generator:
    """Parse the canonical textual form of a generator."""
    text = text.strip()
    if text in _NAMED:
        return _NAMED[text]()
    if ":" not in text:
        raise GeneratorSpecError(f"unrecognized arithmetic spec {text!r}")
    head, _, body = text.partition(":")
    try:
        if head in _PAIRS:
            first, second = (int(x) for x in body.split(","))
            return _PAIRS[head](first, second)
        if head == "const":
            return Constant(int(body))
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
