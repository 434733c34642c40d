"""Generalized integer arithmetics built from progression sums.

Multiplication here is the sum of n terms of an integer progression whose
first term is m - n + 1.  A constant difference k gives the k-arithmetic
(ordinary arithmetic at k = 2); an arbitrary integer sequence gives a
generated arithmetic.  Each arithmetic carries its own quotients, divisors,
primes, Collatz-style dynamics, and prime covering sets, all computed in
exact arbitrary precision.
"""

from .collatz import (
    DEFAULT_MAGNITUDE_BOUND,
    DEFAULT_STEP_LIMIT,
    GoldbachReport,
    OddOrbitFate,
    OrbitKind,
    OrbitOutcome,
    collatz_step,
    fixed_points,
    goldbach_scan,
    odd_k_classification,
    orbit,
    orbit_length_scan,
    product_parity_set,
    two_divides,
)
from .core import (
    DivisorReport,
    DomainError,
    NotDivisible,
    Representation,
    identity_suite,
    is_k_prime,
    is_k_prime_by_characterization,
    k_divides,
    k_divisors,
    k_divisors_by_scan,
    k_primes_below,
    k_product,
    k_product_by_summation,
    k_quotient,
    nth_prime,
    polygonal,
    representations,
    t_peano_product,
    usual_divisors,
)
from .coverage import (
    CoverageReport,
    locate_power_of_two_cover,
    progression_window,
    residual_set,
    seq_residual_set,
    verify_witnesses,
)
from .generated import (
    cubes_sequence,
    divisors,
    exact_divisor_count_numbers,
    primes_below,
    seq_divisors,
    seq_is_prime,
    seq_primes_below,
    seq_product,
    seq_quotient,
    squares_sequence,
)
from .generators import (
    AlternatingOnes,
    ArithProg,
    Constant,
    Explicit,
    FurstPattern,
    Generator,
    GeneratorSpecError,
    GeomProg,
    Polynomial,
    PrefixExhaustedError,
    PrefixSums,
    UsualPrimes,
    ZeroOne,
    parse_generator,
)
from .oeis import (
    BFileParseError,
    OeisFixture,
    PrefixComparison,
    compare_prefix,
    parse_bfile,
    parse_bfile_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
