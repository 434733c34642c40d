"""Prime covering sets and their residuals over integer windows.

For a fixed arithmetic, the multiples of a prime p form the progression
{ product(n, p) : n in Z }, which is linear in n with common difference p.
Unioning them over the primes below a prime limit and subtracting from a
window [-N, N] leaves the residual set: {-1, 1} for even k, {0} for odd k,
and richer sets in sequence-generated arithmetics.  The default limit is the
proven one, ``Generator.prime_limit(N)``, which refuses a sequence it has no
proof for, so a residual never rests on a guessed limit.

A constant arithmetic at a prime limit of at least 2N + 1 takes its residual
from that theorem (see ``seq_residual_set``); every other call marks each
prime's progression in a bytearray over the window with one slice
assignment and reads the residual from the unmarked bytes in one pass.  The witness
map (covered value -> (prime, index)) is built only when
``CoverageReport.witnesses`` is first read, which the CLI never does.
"""

from __future__ import annotations

from itertools import compress

from .core import DomainError, _record, k_product, k_quotient
from .generated import primes_below, seq_product
from .generators import K_LEMMA, Constant, Generator, parse_generator


#: bytes.translate table that swaps 0 and 1: the marked window's unmarked bytes become true
_UNCOVERED = bytes.maketrans(b"\0\1", b"\1\0")


@_record
class CoverageReport:
    """Window coverage by prime multiple sets.

    ``offsets`` holds product(0, p) for each prime p of ``primes_used``, so
    the multiples of p are p*n + offset; ``residual`` is everything in the
    window no prime progression reaches.  ``witnesses`` maps each covered
    value to one (prime, index) pair whose product lands on it, the first
    prime in ascending order; it is built on first read and cached, so a
    report the CLI renders never builds it.  ``covered`` builds no map.
    """

    window_half: int
    arithmetic: str
    primes_used: tuple[int, ...]
    offsets: tuple[int, ...]
    residual: tuple[int, ...]

    @property
    def witnesses(self) -> dict[int, tuple[int, int]]:
        # cached through __dict__, as Generator.prefix_sums caches its memo;
        # setdefault hands every racing first reader the same map
        witnesses = self.__dict__.get("_witnesses")
        if witnesses is None:
            witnesses = {}
            for p, offset in zip(self.primes_used, self.offsets):
                _mark_progression(witnesses, p, offset, self.window_half)
            witnesses = self.__dict__.setdefault("_witnesses", witnesses)
        return witnesses

    @property
    def covered(self) -> set[int]:
        window = range(-self.window_half, self.window_half + 1)
        return set(window).difference(self.residual)

    def to_bracket_row(self) -> str:
        return "[" + " ".join(str(x) for x in self.residual) + "]"


def progression_window(a: int, b: int, k: int, index_range) -> list[int]:
    """Values product(n, a) + b over the given indices; a progression of
    common difference a regardless of k."""
    if a < 1:
        raise DomainError(f"progression difference must be positive, got {a}")
    return [k_product(n, a, k) + b for n in index_range]


def _mark_progression(
    witnesses: dict[int, tuple[int, int]], p: int, offset: int, window_half: int
) -> None:
    """Mark every value p*n + offset inside [-N, N], solving the exact index
    interval instead of scanning a clipped index window."""
    lo = -((window_half + offset) // p)
    hi = (window_half - offset) // p
    for n in range(lo, hi + 1):
        witnesses.setdefault(p * n + offset, (p, n))


def residual_set(k: int, window_half: int) -> CoverageReport:
    """Cover [-N, N] by all k-prime multiple sets and report the leftovers:
    {-1, 1} for even k, {0} for odd k, by seq_residual_set's theorem."""
    return seq_residual_set(Constant(k), window_half)


def locate_power_of_two_cover(h: int, k: int) -> tuple[int, int]:
    """For odd k, the power-of-two prime whose multiples reach h, with the
    index that lands on it.

    Writing h = +-2**s * m with m odd, the prime is 2**(s+1); the returned
    witness is verified by evaluation.
    """
    if k % 2 == 0:
        raise DomainError("power-of-two cover applies to odd k only")
    if h == 0:
        raise DomainError("0 is not covered by any prime progression when k is odd")
    p = (h & -h) << 1
    n = k_quotient(h, p, k)
    if k_product(n, p, k) != h:
        raise RuntimeError(f"cover witness failed for h={h}, k={k}")
    return p, n


def seq_residual_set(
    g: Generator,
    window_half: int,
    prime_limit: int | None = None,
    bound_factor: int | None = None,
) -> CoverageReport:
    """Residual of [-N, N] under the generated arithmetic's prime multiples.

    The prime limit defaults to ``g.prime_limit(N)``, a DomainError for a
    sequence with no proven limit, and the primes below it are recorded in
    the report; the bound factor goes to ``primes_below`` as given.  An
    empty prime set leaves the whole window residual.  Under K_LEMMA at a
    limit of at least 2N + 1 the residual is a theorem, not marked.  Even k:
    offsets are 0 mod p, so p covers pZ, and each 2 <= |x| <= N has a prime
    factor p <= N.  Odd k: the primes are 2**j, covering the x with
    v2(x) = j - 1, and each x != 0 has 2**(v2(x) + 1) <= 2N.  Larger primes
    reach no more of the window.
    """
    if window_half < 2:
        raise DomainError(f"window half-width must be at least 2, got {window_half}")
    if prime_limit is None:
        prime_limit = g.prime_limit(window_half)
    if prime_limit < 2:
        raise DomainError(f"prime limit must be at least 2, got {prime_limit}")
    primes = tuple(primes_below(prime_limit, g, bound_factor))
    # product(n, p) = p*n + product(0, p): linear in the start value, and
    # product(0, p) = W(p) - p(p - 1).  A sequence without a lemma reads every
    # W(p) from one slice of its memo, W(1..max p); a polynomial one takes each
    # from its closed form, cheaper than a running sum up to max p.  Under
    # K_LEMMA (every term k) it is k_product(0, p, k) = p(p - 1)(k - 2)/2.
    lemma = g.divisor_lemma
    if lemma is None:
        weights = g.weighted_range(primes[-1]) if primes else ()  # weights[p - 1] = W(p)
        offsets = tuple(weights[p - 1] - p * (p - 1) for p in primes)
    elif lemma != K_LEMMA:
        offsets = tuple(seq_product(0, p, g) for p in primes)
    else:
        k = g.term(1)
        offsets = tuple(p * (p - 1) // 2 * (k - 2) for p in primes)
        if prime_limit > 2 * window_half:  # the theorem's limit, see the docstring
            residual = (0,) if k % 2 else (-1, 1)
            return CoverageReport(window_half, g.spec(), primes, offsets, residual)
    width = 2 * window_half + 1
    covered = bytearray(width)  # index i stands for the value i - N
    for p, offset in zip(primes, offsets):
        start = (window_half + offset) % p
        covered[start::p] = b"\1" * len(range(start, width, p))
    residual = compress(range(-window_half, window_half + 1), covered.translate(_UNCOVERED))
    return CoverageReport(window_half, g.spec(), primes, offsets, tuple(residual))


def verify_witnesses(report: CoverageReport, g: Generator | None = None) -> bool:
    """Check every stored witness by evaluating its product; g defaults to
    the report's own arithmetic."""
    if g is None:
        g = parse_generator(report.arithmetic)
    return all(
        seq_product(n, p, g) == value for value, (p, n) in report.witnesses.items()
    )
