"""Prime covering sets and their residuals over integer windows.

For a fixed arithmetic, the multiples of a prime p form the progression
{ product(n, p) : n in Z }, which is linear in n with common difference p.
Unioning them over the primes below ``Generator.prime_limit(N)`` and
subtracting from a window [-N, N] leaves the residual set: {-1, 1} for even
k, {0} for odd k, and richer sets in sequence-generated arithmetics.
"""

from __future__ import annotations

from .core import DomainError, _record, k_product, k_quotient
from .generated import primes_below, seq_product
from .generators import Constant, Generator, parse_generator


@_record
class CoverageReport:
    """Window coverage by prime multiple sets.

    ``witnesses`` maps each covered value to one (prime, index) pair whose
    product lands on it; ``residual`` is everything in the window no prime
    progression reaches.
    """

    window_half: int
    arithmetic: str
    primes_used: tuple[int, ...]
    witnesses: dict[int, tuple[int, int]]
    residual: tuple[int, ...]

    @property
    def covered(self) -> set[int]:
        return set(self.witnesses)

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
    """Cover [-N, N] by all k-prime multiple sets and report the leftovers."""
    g = Constant(k)
    return seq_residual_set(g, window_half, g.prime_limit(window_half)[0])


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
    prime_limit: int,
    bound_factor: int | None = None,
) -> CoverageReport:
    """Residual of [-N, N] under the generated arithmetic's prime multiples.

    The prime limit is caller-supplied (see Generator.prime_limit) and the
    primes below it are recorded in the report.  An empty prime set leaves
    the whole window residual.
    """
    if window_half < 2:
        raise DomainError(f"window half-width must be at least 2, got {window_half}")
    if prime_limit < 2:
        raise DomainError(f"prime limit must be at least 2, got {prime_limit}")
    primes = primes_below(prime_limit, g, bound_factor)
    witnesses: dict[int, tuple[int, int]] = {}
    for p in primes:
        # product(n, p) = p*n + product(0, p): linear in the start value
        _mark_progression(witnesses, p, seq_product(0, p, g), window_half)
    residual = tuple(
        x for x in range(-window_half, window_half + 1) if x not in witnesses
    )
    return CoverageReport(window_half, g.spec(), tuple(primes), witnesses, residual)


def verify_witnesses(report: CoverageReport, g: Generator | None = None) -> bool:
    """Check every stored witness by evaluating its product; g defaults to
    the report's own arithmetic."""
    if g is None:
        g = parse_generator(report.arithmetic)
    return all(
        seq_product(n, p, g) == value for value, (p, n) in report.witnesses.items()
    )
