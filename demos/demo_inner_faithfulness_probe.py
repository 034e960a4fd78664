"""Convolution probe: is a flat model inner faithful?

The Haar state of a model's Hopf image is the Cesaro limit of convolution
powers of the normalized-trace state.  On moment matrices convolution is
matrix multiplication, so the probe takes the Cesaro limit of the powers of
the degree-m moment matrix and compares it against exact values.  That limit
is the orthogonal projector onto the fixed space of the matrix: its dimension
is the fix moment, and the spectral gap below it certifies the dimension.

The outcome is one-sided evidence: agreement with the closed forms supports
inner faithfulness; a stable deviation refutes it for that model.  Both
outcomes show up below.
"""

from qperm import convolution_probe as cp
from qperm import flat_model as fm
from qperm import magic_bases as mb

cfg = cp.ProbeConfig(max_degree=4)

# The 4x4 model: every estimate lands on the exact value to rounding.  The
# probe cannot prove inner faithfulness, but it finds no obstruction.
model4 = fm.model_from_basis(mb.build_pauli_basis_4())
report4 = cp.inner_faithfulness_report(model4, cfg)
print("n=4:", report4.verdict)
for d in report4.degrees:
    print(f"  m={d.m}: fix estimate {d.fix_moment_estimate:.9f}"
          f" (target C_{d.m} = {d.catalan_target},"
          f" residual {d.catalan_residual:.1e},"
          f" fixed space of dimension {d.fixed_space_dim}, gap {d.spectral_gap:.6f})")
for tag, info in report4.degrees[-1].class_residuals.items():
    print(f"    {tag}: estimate {info['estimate'][0]:+.9f}"
          f" vs exact {info['exact'][0]}/{info['exact'][1]}"
          f" (residual {info['residual']:.1e})")

# The n = 5 root-of-unity model: degrees 1..3 agree, but the fourth moment
# of the limit state is the integer 15, not C_4 = 14.  The Hopf image of
# this model is therefore a proper quantum subgroup: the model is NOT inner
# faithful.
model5 = fm.model_from_basis(mb.build_fourier_basis(5))
report5 = cp.inner_faithfulness_report(model5, cfg)
print("\nn=5:", report5.verdict)
for d in report5.degrees:
    print(f"  m={d.m}: fix estimate {d.fix_moment_estimate:.9f}"
          f" (target C_{d.m} = {d.catalan_target},"
          f" fixed space of dimension {d.fixed_space_dim}, gap {d.spectral_gap:.6f})")

# The same happens for n = 6 and 7 (moments 1, 2, 5, 15); the 4x4 model is
# the only constructed one the probe cannot distinguish from the full
# quantum permutation group.
for n in (6, 7):
    model = fm.model_from_basis(mb.build_fourier_basis(n))
    report = cp.inner_faithfulness_report(model, cfg)
    print(f"n={n}:", report.verdict)
