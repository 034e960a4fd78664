"""Independent references for the Cesaro limit of a moment matrix.

``convolution_probe.cesaro_limit`` reads the limit off one eigendecomposition.
The two references here compute it from the definition instead, averaging
powers of the matrix, and share no code with the package:

* ``literal_average`` keeps a running sum of the first r powers;
* ``doubling_limit`` doubles the number of averaged powers with

      A_(2r) = (A_r + M^r A_r) / 2,     M^(2r) = (M^r)^2,

  and closes with the settled power, P A_r with P = M^r: once M^r has
  converged, every later average of powers ends in P A_r.  It raises when the
  power has not settled, instead of guessing.
"""

import numpy as np


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
