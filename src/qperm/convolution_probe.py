"""Numerical probe of the Hopf image of a flat matrix model.

The normalized trace composed with a flat model is a state on the generator
algebra; the Haar state of the model's Hopf image is the weak-* limit of the
Cesaro averages of its convolution powers.  On moment matrices, convolution
is matrix multiplication:

    T[(i1..im), (k1..km)] = tr( v_(i1,k1) ... v_(im,km) ) / n
    (phi * psi)[(i..), (j..)] = sum_(k..) phi[(i..),(k..)] psi[(k..),(j..)],

so the probe takes the Cesaro limit of the powers of the degree-m moment
matrix of the trace state and compares it against exact values: the
fix-moment estimates against Catalan numbers, and individual entries against
the closed-form class values.  Matching values support inner faithfulness of
the model; a stable deviation refutes it.  The probe reports either way and
asserts neither.

T is a state applied entrywise to the unitary u^(tensor m), so ||T|| <= 1.
For a contraction the mean ergodic theorem makes the Cesaro limit the
orthogonal projector onto ker(T - I), and Tx = x exactly when Hx = x for the
Hermitian part H = (T + T*)/2 <= I.  The limit is therefore read off one
Hermitian eigendecomposition of H; its rank is the fix moment, and the
distance from 1 of the kept eigenvalues certifies the answer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import haar_exact
from .errors import MemoryCap, ShapeMismatch
from .flat_model import FlatModel

GIB = 2 ** 30


@dataclass
class ProbeConfig:
    max_degree: int = 4
    tol_converge: float = 1e-10
    memory_cap: int = 2 * GIB              # bytes for one moment matrix
    method: str = "fixed_space"            # the only method

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.tol_converge <= 0:
            raise ValueError("tol_converge must be positive")
        if self.method != "fixed_space":
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class StateTensor:
    """Degree-m moment matrix of a state, shape (n^m, n^m).

    Entry ((i1..im), (k1..km)) in lexicographic tuple order holds the state's
    value at u_(i1,k1)...u_(im,km); every row sums to 1.
    """

    n: int
    m: int
    entries: np.ndarray = field(repr=False)

    def entry(self, itup: tuple[int, ...], ktup: tuple[int, ...]) -> complex:
        return complex(self.entries[_tuple_index(itup, self.n),
                                    _tuple_index(ktup, self.n)])

    def row_sum_error(self) -> float:
        return float(np.abs(self.entries.sum(axis=1) - 1.0).max())

    def fix_moment(self) -> complex:
        """sum over diagonal tuples: the state's value on fix^m."""
        return complex(np.trace(self.entries))

    def rotated(self) -> "StateTensor":
        """Tensor with both index tuples cyclically rotated by one position;
        traciality of a state makes this a fixed point."""
        axes_shape = (self.n,) * (2 * self.m)
        arr = self.entries.reshape(axes_shape)
        rot = [(t + 1) % self.m for t in range(self.m)]
        arr = arr.transpose(tuple(rot) + tuple(self.m + t for t in rot))
        return StateTensor(self.n, self.m, arr.reshape(self.entries.shape).copy())

    def permuted(self, action: haar_exact.LabelAction) -> "StateTensor":
        """Entrywise relabeling T[(sigma i..), (tau k..)]."""
        sig = np.argsort(np.array(action.sigma) - 1)   # position of preimage
        tau = np.argsort(np.array(action.tau) - 1)
        axes_shape = (self.n,) * (2 * self.m)
        arr = self.entries.reshape(axes_shape)
        for axis in range(self.m):
            arr = np.take(arr, sig, axis=axis)
        for axis in range(self.m, 2 * self.m):
            arr = np.take(arr, tau, axis=axis)
        return StateTensor(self.n, self.m, arr.reshape(self.entries.shape).copy())

    def marginalized(self) -> "StateTensor":
        """Degree m-1 tensor obtained by summing the last column index with
        the last row index fixed at 1 (any value gives the same result for a
        genuine state tensor)."""
        if self.m < 2:
            raise ValueError("cannot marginalize a degree-1 tensor")
        axes_shape = (self.n,) * (2 * self.m)
        arr = self.entries.reshape(axes_shape)
        arr = arr.take(0, axis=self.m - 1).sum(axis=2 * self.m - 2)
        size = self.n ** (self.m - 1)
        return StateTensor(self.n, self.m - 1, arr.reshape(size, size).copy())


def _tuple_index(tup: tuple[int, ...], n: int) -> int:
    idx = 0
    for t in tup:
        idx = idx * n + (t - 1)
    return idx


def trace_state(model: FlatModel, m: int, memory_cap: int = 2 * GIB) -> StateTensor:
    """Degree-m moment matrix of tr(.)/n composed with the model.

    Uses the closed-form cyclic Gram product
    tr(v_(p1)...v_(pm))/n = ( prod_t <xi_(pt), xi_(p(t+1))> ) <xi_(pm), xi_(p1)> / n.
    """
    n = model.n
    if 16 * n ** (2 * m) > memory_cap:
        raise MemoryCap(f"degree {m} tensor needs {16 * n ** (2 * m)} bytes "
                        f"> cap {memory_cap}")
    if m == 1:
        return StateTensor(n, 1, np.full((n, n), 1.0 / n, dtype=complex))
    n2 = n * n
    G = model.gram.reshape(n2, n2)
    letters = "abcdefghij"[:m]
    spec = ",".join(letters[t] + letters[(t + 1) % m] for t in range(m))
    cyc = np.einsum(spec + "->" + letters, *([G] * m)) / n
    cyc = cyc.reshape((n, n) * m)
    perm = tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2))
    size = n ** m
    return StateTensor(n, m, cyc.transpose(perm).reshape(size, size).copy())


def convolve(A: StateTensor, B: StateTensor) -> StateTensor:
    """Convolution of states = product of their moment matrices."""
    if (A.n, A.m) != (B.n, B.m):
        raise ShapeMismatch(f"({A.n},{A.m}) vs ({B.n},{B.m})")
    return StateTensor(A.n, A.m, A.entries @ B.entries)


# --- Cesaro limits -----------------------------------------------------------

@dataclass
class CesaroResult:
    limit: StateTensor
    converged: bool                        # every kept eigenvalue within tol of 1
    fixed_dim: int                         # rank of the limit, i.e. its fix moment
    gap: float | None                      # 1 - largest eigenvalue of H left out
    iterations: int = 0                    # no powers are taken; bench/tracing.py reads it
    curve: list = field(default_factory=list)   # stays empty; bench/tracing.py reads it


def cesaro_limit(T: StateTensor, cfg: ProbeConfig | None = None) -> CesaroResult:
    """Limit of (1/r) sum_(s<=r) T^s: the orthogonal projector onto ker(T - I).

    T must be a contraction, as every trace-state tensor is.  The eigenvalues
    of H = (T + T*)/2 above 1 - sqrt(tol) span the fixed space.  The limit is
    certified (``converged``) when each of them lies within tol of 1;
    otherwise the fixed space is ambiguous at this tolerance, which is
    reported, never raised.  ``gap`` is None when every eigenvalue is kept.
    """
    cfg = cfg or ProbeConfig()
    M = T.entries
    lam, V = np.linalg.eigh(0.5 * (M + M.conj().T))       # ascending
    k = int(np.count_nonzero(lam > 1.0 - math.sqrt(cfg.tol_converge)))
    Vk = V[:, lam.size - k:]
    converged = bool(np.all(np.abs(lam[lam.size - k:] - 1.0) <= cfg.tol_converge))
    gap = float(1.0 - lam[-k - 1]) if k < lam.size else None
    return CesaroResult(StateTensor(T.n, T.m, Vk @ Vk.conj().T), converged, k, gap)


# --- reports -----------------------------------------------------------------

@dataclass
class DegreeProbe:
    m: int
    converged: bool
    fixed_space_dim: int
    spectral_gap: float | None
    fix_moment_estimate: float
    fix_moment_imag: float
    catalan_target: int
    catalan_residual: float
    row_sum_error: float
    traciality_residual: float
    invariance_residual: float             # |L*T - L|
    class_residuals: dict


@dataclass
class ProbeReport:
    n: int
    basis_kind: str
    degrees: list
    verdict: str
    tol_converge: float
    method: str = "fixed_space"

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "basis": self.basis_kind,
            "tol_converge": self.tol_converge,
            "method": self.method,
            "degrees": [{
                "m": d.m,
                "converged": d.converged,
                "fixed_space_dim": d.fixed_space_dim,
                "spectral_gap": d.spectral_gap,
                "fix_moment_estimate": d.fix_moment_estimate,
                "fix_moment_imag": d.fix_moment_imag,
                "catalan_target": d.catalan_target,
                "catalan_residual": d.catalan_residual,
                "row_sum_error": d.row_sum_error,
                "traciality_residual": d.traciality_residual,
                "invariance_residual": d.invariance_residual,
                "class_residuals": d.class_residuals,
            } for d in self.degrees],
            "verdict": self.verdict,
        }

    def fix_moment_csv(self) -> str:
        lines = ["m,estimate,imag,catalan,residual"]
        for d in self.degrees:
            lines.append(f"{d.m},{d.fix_moment_estimate!r},{d.fix_moment_imag!r},"
                         f"{d.catalan_target},{d.catalan_residual!r}")
        return "\n".join(lines) + "\n"


def estimate_fix_moments(limit: StateTensor) -> tuple[float, float]:
    """Diagonal-tuple sum of the limit tensor: (real estimate, |imag part|)."""
    val = limit.fix_moment()
    return float(val.real), abs(float(val.imag))


def _class_residuals(limit: StateTensor, n: int) -> dict:
    """|limit entry - exact closed form| for every class representative of
    degree m, keyed by class tag."""
    out = {}
    for tag in haar_exact.DEGREE_CLASS_TAGS.get(limit.m, ()):
        rep = haar_exact.REPRESENTATIVES[tag]
        itup = tuple(i for i, _ in rep)
        ktup = tuple(j for _, j in rep)
        if max(itup + ktup) > n:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", haar_exact.BoundaryDimensionWarning)
            exact = haar_exact.class_value(tag, n)
        est = limit.entry(itup, ktup)
        out[tag] = {
            "estimate": [est.real, est.imag],
            "exact": [exact.numerator, exact.denominator],
            "residual": abs(est - complex(Fraction(exact))),
        }
    return out


def inner_faithfulness_report(model: FlatModel, cfg: ProbeConfig | None = None) -> ProbeReport:
    """Run the probe at degrees 1..max_degree and aggregate the evidence.

    The verdict only ever states consistency or deviation of the estimated
    Hopf-image Haar values relative to the closed forms, or that the first
    degree without a certified fixed space leaves them open; it is data about
    the model, not a proof about the quantum group.  The first degree that
    deviates or is not certified decides the verdict.
    """
    cfg = cfg or ProbeConfig()
    top = 16 * model.n ** (2 * cfg.max_degree)
    if top > cfg.memory_cap:
        raise MemoryCap(f"degree {cfg.max_degree} tensor needs {top} bytes "
                        f"> cap {cfg.memory_cap}; refusing up front")
    degrees = []
    worst_residual = 0.0
    verdict = None
    for m in range(1, cfg.max_degree + 1):
        T = trace_state(model, m, cfg.memory_cap)
        result = cesaro_limit(T, cfg)
        L = result.limit
        est, imag = estimate_fix_moments(L)
        target = haar_exact.catalan(m)
        residual = abs(est - target)
        rot = L.rotated()
        degrees.append(DegreeProbe(
            m=m,
            converged=result.converged,
            fixed_space_dim=result.fixed_dim,
            spectral_gap=result.gap,
            fix_moment_estimate=est,
            fix_moment_imag=imag,
            catalan_target=target,
            catalan_residual=residual,
            row_sum_error=L.row_sum_error(),
            traciality_residual=float(np.abs(L.entries - rot.entries).max()),
            invariance_residual=float(
                np.abs(L.entries @ T.entries - L.entries).max()),
            class_residuals=_class_residuals(L, model.n),
        ))
        worst_residual = max(worst_residual, residual)
        if verdict is None and not result.converged:
            verdict = (f"inconclusive at degree {m}: not every eigenvalue of the "
                       f"{result.fixed_dim}-dimensional fixed space lies within "
                       f"{cfg.tol_converge:.2e} of 1")
        elif verdict is None and residual > 1e-6:
            verdict = (f"deviates at degree {m} by {residual:.6g} "
                       f"(fix-moment estimate vs Catalan target)")
    if verdict is None:
        verdict = (f"consistent with inner faithfulness up to degree "
                   f"{cfg.max_degree} at tolerance {max(worst_residual, cfg.tol_converge):.2e}")
    return ProbeReport(n=model.n, basis_kind=model.basis.kind,
                       degrees=degrees, verdict=verdict,
                       tol_converge=cfg.tol_converge, method=cfg.method)
