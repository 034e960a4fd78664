"""Convolution probe: is a flat model inner faithful?

The Haar state of a model's Hopf image is the Cesaro limit of convolution
powers of the normalized-trace state.  On moment matrices convolution is
matrix multiplication, so the probe takes the Cesaro limit of the powers of
the degree-m moment matrix and compares it against exact values.  That limit
is the orthogonal projector onto the fixed space of the matrix: its dimension
is the fix moment, and the spectral gap below it certifies the dimension.
For grids with a label symmetry (translations of the labels mod n, or XOR
of the labels, up to a gauge of phases) the probe solves a block of side
n^(m-1) and reads the same answer off it.  Because the trace is a trace, rotating
index tuples leaves the matrix unchanged, so it splits further into m
rotation sectors, each solved on its own.

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

# The root-of-unity Gram tables are unchanged by shifting row indices
# together and column indices together, and the 4x4 one by XORing them up
# to a sign on each pair, so the probe solves a block of side n^(m-1) in
# place of the n^m x n^m moment matrix; the report says which ("shift",
# "xor", or "orbits" where the blocks reduce further to label orbits).
# That makes n = 8 at degree 4 cheap, and the same moments 1, 2, 5, 15 show
# up for n = 6, 7 and 8.  The 4x4 model is the only constructed one the
# probe cannot distinguish from the full quantum permutation group.
# Beneath that, each solved matrix splits into one sector per character of
# the cyclic group Z_m rotating the tuples, of side about (block side)/m.
print("\nreduction at degree 4: n=4", report4.degrees[-1].reduction,
      report4.degrees[-1].block_size, "| n=5", report5.degrees[-1].reduction,
      report5.degrees[-1].block_size)
print("rotation sectors at degree 4: n=4", report4.degrees[-1].sectors,
      "| n=5", report5.degrees[-1].sectors)
for n in (6, 7, 8):
    model = fm.model_from_basis(mb.build_fourier_basis(n))
    report = cp.inner_faithfulness_report(model, cfg)
    print(f"n={n}: dimensions {[d.fixed_space_dim for d in report.degrees]},"
          f" block side {report.degrees[-1].block_size}"
          f" (full side {n ** 4}), sectors {report.degrees[-1].sectors},"
          f" gap {report.degrees[-1].spectral_gap:.6f}: {report.verdict}")

# Degree 5 at n = 5: the fixed space has dimension 52, the number of set
# partitions of 5 points into at most 5 blocks, i.e. the S_n count, where
# the quantum permutation group would give C_5 = 42.
report = cp.inner_faithfulness_report(model5, cp.ProbeConfig(max_degree=5))
d5 = report.degrees[-1]
print(f"\nn=5, degree 5: fixed space of dimension {d5.fixed_space_dim}"
      f" (C_5 = {d5.catalan_target}), block side {d5.block_size},"
      f" sectors {d5.sectors}, gap {d5.spectral_gap:.6f}")
