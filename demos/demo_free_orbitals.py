"""Free orbitals: words of projections vanish only for trivial reasons.

In a magic unitary, adjacent factors sharing a row or a column (but not
both) multiply to zero.  A model has free m-orbitals when those are the
ONLY length-m words that vanish.  The rank-one models built from magic
bases make this checkable over all n^(2m) words at once: a word's value is
a product of Gram factors along a path on the n^2 pairs, so a min/max
recursion over paths gives the extremes over every word in O(m n^4).

The classical permutation group is the contrast: its indicator-function
model has free 1- and 2-orbitals but, once n >= 3, already fails at length
3.  That verdict needs no scan: the check states it as a theorem and only
searches, in lexicographic order, for the first violating words to show.
"""

from qperm import flat_model as fm
from qperm import magic_bases as mb

model = fm.model_from_basis(mb.build_pauli_basis_4())

# A single word, evaluated in closed form.
word = fm.parse_monomial("1:1,2:2,1:1,2:2")
value = fm.monomial_value(model, word)
print(f"word {fm.format_monomial(word)}:")
print(f"  coefficient {value.coefficient:.6f} = (1/3)^3,"
      f" trace {value.trace(model):.6f} = (1/3)^4")

# Checks over all words.  The gap between the largest "zero" and the
# smallest surviving magnitude is what makes the float thresholds safe.
for n, m in [(4, 3), (4, 5), (5, 4), (6, 4), (8, 4)]:
    basis = mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n)
    report = fm.check_free_orbitals(fm.model_from_basis(basis), m)
    print(f"n={n} m={m}: pass={report.passed} words={report.total}"
          f" min_nonzero={report.min_nonzero:.3e} max_zero={report.max_zero:.3e}")

# Commutation pattern: v_ij and v_kl commute exactly when i = k or j = l.
import numpy as np
pattern = fm.commutation_pattern(model)
print("commutation pattern == [i=k or j=l]:",
      bool(np.array_equal(pattern, fm.expected_commutation_pattern(4))))

# Classical contrast.  A word is nonzero on S_n exactly when its constraints
# sigma(j) = i form a partial bijection, so length-3 words can vanish for a
# non-trivial reason: two non-adjacent constraints on the same point conflict.
cm = fm.classical_model(4)
print("classical m=1 free:", fm.check_free_orbitals_classical(cm, 1).passed)
print("classical m=2 free:", fm.check_free_orbitals_classical(cm, 2).passed)
report3 = fm.check_free_orbitals_classical(cm, 3)
print("classical m=3 free:", report3.passed)
print("first violations:", "; ".join(fm.format_monomial(w) for w in report3.violations[:3]))
witness = fm.parse_monomial("1:3,2:2,1:1")
print(f"witness {fm.format_monomial(witness)}: classically zero ="
      f" {fm.classical_zero(cm, witness)}, trivially zero ="
      f" {fm.is_trivially_zero(witness)}")
