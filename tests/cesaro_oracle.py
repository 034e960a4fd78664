"""Independent references for the Cesaro limit of a moment matrix.

``convolution_probe.cesaro_limit`` reads the limit off one eigendecomposition
per rotation sector: as real matrices, and on about half of the sectors,
where the dihedral symmetries hold.  ``unsplit_limit`` is the same solve without any split:
one ``eigh`` of the whole Hermitian part, returned as a ``CesaroResult`` so
that a probe report can run on it.  The other two references compute the
limit from the definition instead, averaging powers of the matrix, and share
no code with the package:

* ``literal_average`` keeps a running sum of the first r powers;
* ``doubling_limit`` doubles the number of averaged powers with

      A_(2r) = (A_r + M^r A_r) / 2,     M^(2r) = (M^r)^2,

  and closes with the settled power, P A_r with P = M^r: once M^r has
  converged, every later average of powers ends in P A_r.  It raises when the
  power has not settled, instead of guessing.
"""

import math

import numpy as np

from qperm.convolution_probe import CesaroResult, ProbeConfig, StateTensor


def unsplit_limit(T, cfg=None):
    """Projector onto the eigenvalues of (T + T*)/2 above 1 - sqrt(tol), from
    one ``eigh`` of the whole matrix; ``sectors`` is ``[side]``.  The three
    residuals are measured on the whole input: traciality on ``T.rotated()``,
    the Theta residual as |T[rho][:, rho] - conj T| for the reversal rho of
    tuples, and the mirror residual as |T - conj T|.  The invariance
    residual is |L T - L|_F of the formed limit L.  A ``gram_state`` input is
    built whole first."""
    cfg = cfg or ProbeConfig()
    M = T.entries[:T.entries.shape[0]]
    T = StateTensor(T.n, T.m, M, T.shift)
    lam, V = np.linalg.eigh(0.5 * (M + M.conj().T))       # ascending
    k = int(np.count_nonzero(lam > 1.0 - math.sqrt(cfg.tol_converge)))
    Vk = V[:, lam.size - k:]
    converged = bool(np.all(np.abs(lam[lam.size - k:] - 1.0) <= cfg.tol_converge))
    rest = lam[:lam.size - k]
    if lam.size < T.n ** T.m:
        rest = np.append(rest, 0.0)
    gap = float(1.0 - rest.max()) if rest.size else None
    tracial = float(np.abs(M - T.rotated().entries).max()) / T.scale
    rho = T.index(T.tuples()[:, ::-1])
    theta = float(np.abs(M[np.ix_(rho, rho)] - M.conj()).max()) / T.scale
    mirror = float(np.abs(M - M.conj()).max()) / T.scale
    L = Vk @ Vk.conj().T
    invariance = float(np.linalg.norm(L @ M - L))
    return CesaroResult(n=T.n, m=T.m, shift=T.shift, converged=converged,
                        fixed_dim=k, gap=gap, vectors=Vk, sectors=[lam.size],
                        traciality_residual=tracial, theta_residual=theta,
                        mirror_residual=mirror, invariance_residual=invariance)


def literal_average(M, r):
    """(1/r) sum_(s=1..r) M^s."""
    P = M.copy()
    S = M.copy()
    for _ in range(r - 1):
        P = P @ M
        S += P
    return S / r


def doubling_limit(M, doublings=12, settle_tol=1e-12):
    """Cesaro limit of the powers of M after 2^doublings averaged powers."""
    A = M.copy()
    P = M.copy()
    for _ in range(doublings):
        A = 0.5 * (A + P @ A)
        P = P @ P
    settled = float(np.abs(P @ P - P).max())
    if settled > settle_tol:
        raise ArithmeticError(f"M^r has not settled: |P^2 - P| = {settled:.3g}")
    return P @ A
