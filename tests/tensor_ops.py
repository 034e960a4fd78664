"""Operations on generator words and full moment matrices that only the
tests use.

``LabelAction`` relabels rows and columns of a generator word.  ``entry``,
``row_sum_error`` and ``fix_moment`` read a ``convolution_probe.StateTensor``
in either layout.  The tensor operations each take one holding the full
tensor (``shift=False``), work on its ``entries`` array in lexicographic
tuple order, and return a new one:

* ``permuted`` relabels rows and columns, T[(sigma i..), (tau k..)];
* ``marginalized`` sums out the last index pair, giving degree m - 1;
* ``convolve`` is the convolution of two states, the product of their
  moment matrices.

``cyclic_products_einsum`` is the reference for ``trace_state``, in the full
layout and as a shift block: the cyclic Gram product as one multi-operand
``einsum``.

``limit_of`` forms the Cesaro limit Vk Vk* of a ``CesaroResult``, which the
probe itself never builds.

``magic_law_residual`` and ``orbital_related`` read a flat model,
``fourier_gram_closed_form`` gives the root-of-unity grid's Gram entries,
and ``bounds_contain`` tests a value against a ``BoundsTable`` interval.

``basis_to_dict`` is the reference encoder of the basis file format: the
object whose ``json.dumps`` is the text ``magic_bases.write_basis`` writes.

``report_to_dict`` is the reference for ``ProbeReport.to_dict``, built with
``dataclasses.asdict``, and ``class_residuals_per_tag`` the reference for
the report's class residuals, one dot product per class representative.
"""

import cmath
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from qperm import flat_model, haar_exact
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


def entry(T, itup, ktup):
    """The state's value at u_(i1,k1)...u_(im,km), from 1-based tuples."""
    row, col = T.index(np.array([itup, ktup]) - 1)
    return complex(T.entries[row, col]) / T.scale


def row_sum_error(T):
    return float(np.abs(T.entries.sum(axis=1) - 1.0).max())


def fix_moment(T):
    """sum over diagonal tuples: the state's value on fix^m."""
    return complex(np.trace(T.entries))


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


def cyclic_products_einsum(model, m, pinned):
    """n times the degree-m trace state, or its shift block B when ``pinned``
    (p1 = (1, 1)), in row-tuple x column-tuple order, from one ``einsum`` of
    the cyclic Gram product G[p1, p2] G[p2, p3] ... G[pm, p1]."""
    n = model.n
    free = m - 1 if pinned else m
    size = n ** free
    G = model.gram.reshape(n * n, n * n)
    if m == 1:                                     # G[p1, p1]
        cyc = G[:1, :1].copy() if pinned else np.diagonal(G).copy()
    else:
        letters = "abcdefghij"[:m]
        terms = [letters[t] + letters[(t + 1) % m] for t in range(m)]
        operands = [G] * m
        if pinned:
            terms[0], terms[-1] = terms[0][1], terms[-1][0]
            operands[0], operands[-1] = G[0], G[:, 0]
        cyc = np.einsum(",".join(terms) + "->" + letters[m - free:], *operands)
    cyc = cyc.reshape((n, n) * free)
    perm = tuple(range(0, 2 * free, 2)) + tuple(range(1, 2 * free, 2))
    return cyc.transpose(perm).reshape(size, size)


def limit_of(result):
    """The limit Vk Vk* of a ``cesaro_limit`` result, in the layout of its input."""
    Vk = result.vectors
    return StateTensor(result.n, result.m, Vk @ Vk.conj().T, result.shift)


def magic_law_residual(model):
    """max over rows/columns of || sum_k v_ik - 1 || (and the column version)."""
    n = model.n
    eye = np.eye(n)
    worst = 0.0
    for s in range(1, n + 1):
        row = sum(model.projection(s, k) for k in range(1, n + 1))
        col = sum(model.projection(k, s) for k in range(1, n + 1))
        worst = max(worst, np.abs(row - eye).max(), np.abs(col - eye).max())
    return worst


def orbital_related(model, itup, jtup, tol_nonzero=flat_model.TOL_NONZERO):
    """Whether (i1..im) ~ (j1..jm), i.e. u_(i1,j1)...u_(im,jm) != 0 in the model."""
    if len(itup) != len(jtup):
        raise ValueError("tuples must have equal length")
    if not itup:
        return True
    mono = tuple(zip(itup, jtup))
    return abs(flat_model.monomial_value(model, mono).coefficient) > tol_nonzero


def fourier_gram_closed_form(n, a, b):
    """Closed form of <xi_a, xi_b> for the root-of-unity grid."""
    (i, j), (k, l) = a, b
    w = cmath.exp(2j * math.pi / n)
    val = (w ** ((j - l) % n) - 1) * (1 - w ** ((k - i) % n)) / n
    if ((k - i) + (j - l)) % n == 0:
        val += 1.0
    return val


def bounds_contain(bounds, tag, value):
    """Whether ``value`` lies in the open interval of class ``tag``."""
    lo, hi = bounds.intervals[tag]
    return lo < value < hi


def basis_to_dict(basis):
    """The basis file's object: n, kind and the nested [re, im] pairs of xi."""
    return {
        "n": basis.n,
        "kind": basis.kind,
        "xi": np.stack([basis.xi.real, basis.xi.imag], axis=-1).tolist(),
    }


def report_to_dict(report):
    """The probe report's JSON object, each degree deep-copied by ``asdict``."""
    return {
        "n": report.n,
        "basis": report.basis_kind,
        "tol_converge": report.tol_converge,
        "degrees": [asdict(d) for d in report.degrees],
        "verdict": report.verdict,
    }


def class_residuals_per_tag(T, Vk):
    """Class residuals of the limit Vk Vk* (stored like T), one tag at a time."""
    out = {}
    for tag in haar_exact.DEGREE_CLASS_TAGS.get(T.m, ()):
        rep = haar_exact.REPRESENTATIVES[tag]
        itup = tuple(i for i, _ in rep)
        ktup = tuple(j for _, j in rep)
        if max(itup + ktup) > T.n:
            continue
        exact = haar_exact.class_value(tag, T.n)
        row, col = T.index(np.array([itup, ktup]) - 1)
        est = complex(Vk[row] @ Vk[col].conj()) / T.scale
        out[tag] = {
            "estimate": [est.real, est.imag],
            "exact": [exact.numerator, exact.denominator],
            "residual": abs(est - complex(Fraction(exact))),
        }
    return out
