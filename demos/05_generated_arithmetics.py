"""
Arithmetics generated by arbitrary sequences
=============================================

Any integer sequence induces a product through its weighted partial sums.
Progression generators classify into six prime landscapes; squares and
cubes of other generators reproduce a surprising range of classical
sequences (cake numbers, Mersenne numbers, quarter-squares, ...).
"""

from karith import (
    AlternatingOnes,
    ArithProg,
    FurstPattern,
    GeomProg,
    Polynomial,
    UsualPrimes,
    ZeroOne,
    cubes_sequence,
    exact_divisor_count_numbers,
    seq_divisors,
    seq_primes_below,
    seq_product,
    seq_residual_set,
    squares_sequence,
)

# A product under the generator 3, 7, 11, 15, ... and one of its divisor
# reports (bound 6a: every divisor divides 6a, the divisor lemma for progressions).
print("5 (*) 8 generated by 3,7,11,...:", seq_product(5, 8, ArithProg(3, 4)))
print("divisors of 20 generated by odd numbers:",
      seq_divisors(20, ArithProg(1, 2)).divisors)

# The six progression cases: start parity and step mod 3 decide the primes.
print("\nprimes below 100 by progression generator:")
for a, b in [(1, 3), (1, 1), (1, 2), (2, 3), (2, 1), (2, 2)]:
    primes = seq_primes_below(100, ArithProg(a, b))
    print(f"  start {a}, step {b}: {primes if primes else 'none'}")

# A quadratic generator: the chessboard-like prime set.
print("\nprimes below 400 generated by 1, 6, 21, ...:",
      seq_primes_below(400, Polynomial((1, 0, 5)), bound_factor=6))

# Where no primes exist, three-divisor numbers play their role.
print("three-divisor numbers below 250 (odd-number generator):",
      exact_divisor_count_numbers(3, 250, ArithProg(1, 2)))

# Squares and cubes of assorted generators.
print("\nsquares by generator:")
for label, g in [
    ("0,1,2,3,...   (cake numbers)", ArithProg(0, 1)),
    ("1,2,3,4,...   (centered 3d analogue)", ArithProg(1, 1)),
    ("1,2,4,8,...   (Mersenne numbers)", GeomProg(1, 2)),
    ("primes        (natural-prime convolution)", UsualPrimes()),
    ("1,-1,1,-1,... (0 or 1 mod 3)", AlternatingOnes()),
    ("0,1,0,1,...   (quarter-squares)", ZeroOne()),
    ("1,-1,0...     (pancake-number lookalike)", FurstPattern()),
]:
    print(f"  {label}: {squares_sequence(10, g)}")

print("\ncubes of 1,-1,1,-1,...:", cubes_sequence(10, AlternatingOnes()))
print("cubes of 0,1,0,1,...:  ", cubes_sequence(10, ZeroOne()))

# The covering-set picture also generalizes; residuals grow structure.
report = seq_residual_set(ArithProg(1, 1), 30, 200)
print("\nresidual of [-30, 30] under the 1,2,3,... arithmetic:")
print(" ", report.to_bracket_row())
