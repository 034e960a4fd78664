"""Magic bases: construction and verification.

A magic basis is an n x n grid of vectors in C^n whose rows and columns are
each orthonormal bases.  The package ships two constructions: the explicit
4x4 grid with coordinates in thirds, and the root-of-unity grid for n >= 5.
This script builds both, verifies the defining properties, and looks at the
structure of the pairwise inner products.
"""

import itertools
import os
import tempfile

import numpy as np

from qperm import magic_bases as mb

# The 4x4 grid.  First column is the standard basis; the rest have
# coordinates 0, +-1/3, +-2/3.
pauli = mb.build_pauli_basis_4()
print("4x4 grid, entry (2,2):", np.round(pauli.vector(2, 2), 6))
print("exact coordinates:   ", pauli.exact_vector(2, 2))

report = mb.verify_magic(pauli)
print(f"magic: {report.magic_ok} (max residual {report.max_residual:.2e})")

# Off-orbit inner products all land strictly inside (0, 1): the grid is
# suitably noncommutative, which is what makes the induced projections
# noncommuting exactly when indices fully differ.
report = mb.verify_suitably_noncommutative(pauli)
print(f"suitably noncommutative: {report.suitably_noncommutative_ok}")
mags = sorted({round(abs(mb.gram(pauli, a, b)), 10)
               for a in itertools.product(range(1, 5), repeat=2)
               for b in itertools.product(range(1, 5), repeat=2)
               if a[0] != b[0] and a[1] != b[1]})
print("distinct off-orbit |<xi_a, xi_b>| values:", mags)

# The root-of-unity grid for n = 7.  Inner products split into two regimes.
n = 7
fourier = mb.build_fourier_basis(n)
print(f"\nroot-of-unity grid n={n}:",
      "magic" if mb.verify_magic(fourier).magic_ok else "NOT magic")

resonant = []
generic = []
for a in itertools.product(range(1, n + 1), repeat=2):
    for b in itertools.product(range(1, n + 1), repeat=2):
        case = mb.fourier_case(a, b, n)
        g = mb.gram(fourier, a, b)
        if case == "resonant":
            resonant.append(g.real)
        elif case == "generic":
            generic.append(abs(g))
print(f"resonant values in [1-4/n, 1) = [{1 - 4 / n:.4f}, 1):",
      f"min {min(resonant):.4f}, max {max(resonant):.4f}")
print(f"generic magnitudes in (0, 4/n] = (0, {4 / n:.4f}]:",
      f"min {min(generic):.4f}, max {max(generic):.4f}")

# Bases round-trip through a JSON file format at full precision.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "basis7.json")
    mb.write_basis(fourier, path)
    again = mb.read_basis(path)
print("json round trip exact:", bool(np.all(again.xi == fourier.xi)))
