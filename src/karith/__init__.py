"""Generalized integer arithmetics built from progression sums.

Multiplication here is the sum of n terms of an integer progression whose
first term is m - n + 1.  A constant difference k gives the k-arithmetic
(ordinary arithmetic at k = 2); an arbitrary integer sequence gives a
generated arithmetic.  Each arithmetic carries its own quotients, divisors,
primes, Collatz-style dynamics, and prime covering sets, all computed in
exact arbitrary precision.

Importing the package loads none of its modules.  Each public name is
resolved from the module ``_EXPORTS`` names on its first read (PEP 562) and
then bound here, so later reads are plain attribute lookups; a
``python -m karith`` child thus loads only the modules its command runs.
"""

# module -> the public names it exports; the modules are public names too
_EXPORTS = {
    "collatz": (
        "DEFAULT_MAGNITUDE_BOUND", "DEFAULT_STEP_LIMIT", "GoldbachReport", "OddOrbitFate",
        "OrbitKind", "OrbitOutcome", "collatz_step", "fixed_points", "goldbach_scan",
        "odd_k_classification", "orbit", "orbit_length_scan", "product_parity_set",
        "two_divides",
    ),
    "core": (
        "DivisorReport", "DomainError", "NotDivisible", "Representation", "identity_suite",
        "is_k_prime", "is_k_prime_by_characterization", "k_divides", "k_divisors",
        "k_divisors_by_scan", "k_primes_below", "k_product", "k_product_by_summation",
        "k_quotient", "nth_prime", "polygonal", "representations", "t_peano_product",
        "usual_divisors",
    ),
    "coverage": (
        "CoverageReport", "locate_power_of_two_cover", "progression_window", "residual_set",
        "seq_residual_set", "verify_witnesses",
    ),
    "generated": (
        "cubes_sequence", "divisors", "exact_divisor_count_numbers", "primes_below",
        "seq_divisors", "seq_is_prime", "seq_primes_below", "seq_product", "seq_quotient",
        "squares_sequence",
    ),
    "generators": (
        "AlternatingOnes", "ArithProg", "Constant", "Explicit", "FurstPattern", "Generator",
        "GeneratorSpecError", "GeomProg", "Polynomial", "PrefixExhaustedError", "PrefixSums",
        "UsualPrimes", "ZeroOne", "parse_generator",
    ),
    "oeis": (
        "BFileParseError", "OeisFixture", "PrefixComparison", "compare_prefix", "parse_bfile",
        "parse_bfile_text",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _SOURCE:
        value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
