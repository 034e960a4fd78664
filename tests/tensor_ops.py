"""Operations on generator words and full moment matrices that only the
tests use.

``LabelAction`` relabels rows and columns of a generator word.  The tensor
operations each take a ``convolution_probe.StateTensor`` holding the full
tensor (``shift=False``), work on its ``entries`` array in lexicographic
tuple order, and return a new one:

* ``permuted`` relabels rows and columns, T[(sigma i..), (tau k..)];
* ``marginalized`` sums out the last index pair, giving degree m - 1;
* ``convolve`` is the convolution of two states, the product of their
  moment matrices.
"""

from dataclasses import dataclass

import numpy as np

from qperm.convolution_probe import StateTensor
from qperm.flat_model import Monomial


@dataclass(frozen=True)
class LabelAction:
    """Row permutation sigma and column permutation tau acting by
    u_ij -> u_(sigma(i), tau(j));  sigma[k-1] = sigma(k)."""

    sigma: tuple[int, ...]
    tau: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)) or \
           sorted(self.tau) != list(range(1, len(self.tau) + 1)):
            raise ValueError("sigma and tau must be permutations of 1..n")

    def apply(self, mono: Monomial) -> Monomial:
        return tuple((self.sigma[i - 1], self.tau[j - 1]) for i, j in mono)


def permuted(T, action):
    """Entrywise relabeling T[(sigma i..), (tau k..)] by a ``LabelAction``."""
    sig = np.argsort(np.array(action.sigma) - 1)   # position of preimage
    tau = np.argsort(np.array(action.tau) - 1)
    arr = T.entries.reshape((T.n,) * (2 * T.m))
    for axis in range(T.m):
        arr = np.take(arr, sig, axis=axis)
    for axis in range(T.m, 2 * T.m):
        arr = np.take(arr, tau, axis=axis)
    return StateTensor(T.n, T.m, arr.reshape(T.entries.shape).copy())


def marginalized(T):
    """Degree m-1 tensor: the last column index summed out, the last row
    index fixed at 1 (any value gives the same result for a state tensor)."""
    arr = T.entries.reshape((T.n,) * (2 * T.m))
    arr = arr.take(0, axis=T.m - 1).sum(axis=2 * T.m - 2)
    size = T.n ** (T.m - 1)
    return StateTensor(T.n, T.m - 1, arr.reshape(size, size).copy())


def convolve(A, B):
    """Convolution of two states of the same shape."""
    return StateTensor(A.n, A.m, A.entries @ B.entries)
