"""Exact Haar values on words of degree <= 4.

Traciality, the antipode and independent row/column relabelings cut the
reduced words of degree <= 4 down to ten orbit classes.  Degree <= 3 values
are the S_n values; each degree-4 value is its S_n value plus a slope times
one free parameter a4, which the fourth Catalan moment of the main character
pins at a4 = -1/r(n).  Everything is exact rational arithmetic.
"""

from fractions import Fraction

from qperm import haar_exact as hx

# Canonicalization: rotations, the antipode and relabelings identify words.
examples = [
    ((1, 2), (3, 4), (5, 6), (7, 8)),        # relabels to u11 u22 u33 u44
    ((1, 1), (2, 2), (1, 3), (2, 2)),        # rotates+relabels to a2
    ((1, 1), (2, 2), (1, 1)),                # cyclic collapse to degree 2
    ((1, 1), (2, 2), (1, 3)),                # a rotation hits a zero product
]
for word in examples:
    print(f"{word} -> {hx.canonicalize(word, 8)}")

# The degree-4 table at n = 5: S_5 value + slope * a4, and h(fix^4) = 14
# pins a4 = -1/r(5) for S_5^+.
a4 = Fraction(-1, hx.degree4_denominator(5))
print("\na4 = -1/r(5) =", a4)
for tag, (const, slope) in hx.degree4_affine(5).items():
    print(f"  {tag} = {const} + ({slope}) * a4  ->  {hx.class_value(tag, 5)}")

# Values sit strictly inside the bounds that hold for any quantum
# permutation group with free three-orbitals.
bounds = hx.exotic_bounds(5)
for tag in ("a1", "a4", "a7"):
    lo, hi = bounds.intervals[tag]
    print(f"  {tag} in ({lo}, {hi}): value {hx.class_value(tag, 5)}")

# Main-character moments are Catalan numbers; the classical analogue counts
# fixed points and diverges from the quantum values at degree 4.
print("\nfix moments at n=6:", [str(hx.fix_moment(6, k)) for k in range(5)])
print("double sum identity:", hx.double_sum_identity(6))
word = ((1, 1), (2, 2), (1, 1), (2, 2))
print("quantum  h(u11 u22 u11 u22) at n=5:", hx.haar_value_snplus(word, 5))
# On S_n the word is the partial bijection {1 -> 1, 2 -> 2}: (n-2)!/n!.
print("classical value (word reduces to u11 u22):", hx.classical_haar(5, word))

# n = 4 sits on the boundary of the bounds range; the diagnostic compares
# the table value against the exact trace in the 4x4 rank-one model.
report = hx.n4_boundary_report()
print(f"\nn=4 boundary: table value {report.formula_value},"
      f" model trace {report.model_trace},"
      f" both positive: {report.consistent}")
assert hx.haar_value_snplus(word, 5) == Fraction(1, 44)
