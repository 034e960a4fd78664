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

When moving every row label, or every column label, by one element of a
label group leaves the Gram table unchanged up to a gauge of unit phases
(``label_orbits.label_symmetry``, decided once per model), it leaves T
unchanged too: moving every row index, or every column index, of a tuple
leaves an entry unchanged.  The group is the translations mod n on the
root-of-unity grids, re-phased or not, and XOR of the labels on the 4x4
grid.  T then vanishes off the invariant vectors, and the probe solves the
block B = n T[i1=1, k1=1] of side n^(m-1) in place of T; every report field
is read off B exactly (see ``StateTensor``).  Other grids keep the full
tensor.

Beneath that choice the solved matrix splits further.  The trace is a
trace, so T is unchanged when both index tuples are rotated by one position
(the permutation pi of ``StateTensor.rotation``), on the full tensor and on
the shift blocks alike.  Then T commutes with pi, which has order m, and T is
block diagonal over the characters chi^s of Z_m, chi = exp(2 pi i / m).
Sector s has one basis vector per pi-orbit X whose size |X| satisfies
m | s |X|, namely chi^(s d) / sqrt(|X|) at the orbit's d-th element, so its
side is about side / m, and its block is

    T_s[a, b] = sqrt(|a| |b|) / m  sum_(d < m) chi^(s d) T[a, pi^d b]

over orbit representatives a and b; the block of H is B_s = (T_s + T_s*)/2.
Only the rows of T at the representatives enter, about side/m of them, and
the probe builds just those, straight from the Gram table and a batch at a
time (``gram_state``): no matrix of the solved side squared is formed.  A
batch's rows, their orbit gather and its character blocks share one
workspace, allocated once per call, because a dozen separate temporaries of
a few hundred kB made the allocator return the heap top to the system after
every call and fault it back in on the next.  The split is gated on the
input: a matrix that rotation changes by more than 1e-12 is solved whole, as
one sector.  The orbits and sectors depend on the shape alone and are built
once per shape.

A reflection halves the work again.  Let rho reverse an index tuple.  The
generators are self-adjoint and tr(A*) is the conjugate of tr(A), so
T[rho x, rho y] = conj T[x, y], and rho pi rho = pi^-1.  The antiunitary
Theta = (complex conjugation) o rho therefore commutes with T and H and keeps
each sector: with rho(rep a) = pi^(c_a) rep r(a), it sends the basis vector
of orbit a to phi_a times that of r(a), phi_a = chi^(-s c_a).  In the basis Q
of Theta-fixed vectors -- sqrt(phi_a) e_a where r(a) = a, and
(e_a + phi_a e_r(a)) / sqrt 2 and i (e_a - phi_a e_r(a)) / sqrt 2 on each
pair of orbits {a, r(a)} -- every sector block is real.  When T is real too
(the 4x4 grid's trace states are; the Fourier grids' are to rounding), sector
m - s is the entrywise conjugate of sector s, and so are its eigenvectors.
``cesaro_limit`` runs a real ``eigh`` of Q* B_s Q on sectors 0..floor(m/2)
and lifts each sector m - s as the conjugate of sector s's lifted vectors:
floor(m/2) + 1 real solves per degree in place of m complex ones.  Both steps
are gated at 1e-12 in units of the tensor: max |Im Q* T_s Q| on each solved
sector (``theta_residual``), else it is solved complex in the same basis, and
max |T - conj T| once, on the rows at the representatives, which hold every
entry of T (``mirror_residual``), else every sector is solved itself.

On this path the report reads every field off the lifted orthonormal Vk
and never forms the limit L = Vk Vk*: trace sum |Vk|^2, row sums
Vk (Vk* 1) and entries Vk[x] . conj(Vk[y]).  The invariance residual
|L T - L|_F adds up over the sectors: its square is the sum of
||Y* A_s - Y*||_F^2, with A_s = Q* T_s Q and Y the kept vectors of sector
s in its Theta-real basis.

On the root-of-unity grids the fixed space is an orbit count.  A Gram
table that passes ``label_orbits.shift_invariant`` with no gauge and then
``label_orbits.label_graph`` (its 2-D
DFT equals n on the graph of a permutation f of Z_n and 0 elsewhere, within
TRACIAL_TOL) makes every shift block, in Fourier labels, the mixture
(1/n) sum_alpha P_alpha of n label permutations.  The report then reads the
fixed dimension and the gap off their orbits, and the class entries off a
closed form over the orbits (``label_orbits``, whose docstring holds the
proof); no row of the block is built and no ``cesaro_limit`` runs.

The orbit path's dense solve grows with the largest orbit, the sector
path's with R, the number of rotation orbits of the shift block, and at
degree 4 the bound overtakes 2.5 R near n = 15, where the sector path
becomes the faster (``_takes_orbits``).  A gated grid therefore takes the
orbit path when its largest orbit bound is at most ORBIT_SIDE R and its
working set fits the memory cap, or when only its working set fits; it
keeps the sector path otherwise, as every other grid does.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, NamedTuple

import numpy as np

from . import haar_exact, label_orbits
from .errors import MemoryCap
from .flat_model import FlatModel
from .label_orbits import TRACIAL_TOL

GIB = 2 ** 30
SOLVE_SET = 8                              # see ProbeConfig.memory_cap
ROW_BATCH = 2 ** 20                        # entries in one batch of rows
ORBIT_WORK = 10                            # see _working_set
ORBIT_SIDE = 2.5                           # see _takes_orbits


@dataclass
class ProbeConfig:
    max_degree: int = 4
    tol_converge: float = 1e-10
    # Bytes.  A probe is refused up front when its working set at max_degree
    # exceeds the cap (``_working_set``), 16 bytes an entry: the sector
    # blocks C, m matrices of side R (the number of rotation orbits), SOLVE_SET
    # more such matrices for one sector's solve, and the workspace of the row
    # batches (``_workspace_entries``).  Peak RSS over the baseline, read
    # with resource.getrusage in a subprocess per probe: at degree 7, 787 MB
    # on Fourier n = 5 (R = 2233), 10.3 matrices of side R, against 1205 MB
    # allowed, and at degree 8, 780 MB on the 4x4 grid's XOR blocks
    # (R = 2086), 11.2 matrices, against 1182 MB; at degree 6, 96-234 MB on
    # n = 4..6 (the 4x4 grid then on its full tensor) and 1047 MB on n = 7
    # (R = 2812), 1.3-1.9 times below the formula, and 18 and 119 MB on the
    # 4x4 XOR blocks at degrees 6 and 7, 1.1 and 1.3 times below it; at
    # degree 5, 7-122 MB on n = 4..8 (the 4x4 grid on its full tensor),
    # 1.2-1.6 times below it (fixed allocations, such as the BLAS buffers,
    # weigh more at small R: 3.3 MB against 1.4 MB allowed on the 4x4 XOR
    # blocks, whose R is 52).  On the orbit path (module docstring) the
    # working set is the label permutations and their orbits, the largest
    # batch of orbit blocks and, at m <= 4, the orbits of all the side labels
    # for the class entries: 1.1-1.6 times the traced peak at n = 5..7 and
    # degrees 6-10.
    # A gated grid whose orbit working set exceeds the cap takes the sector
    # path when that one fits (``_takes_orbits``).
    memory_cap: int = 2 * GIB
    method: ClassVar[str] = "fixed_space"  # the only method; bench/tracing.py reads it

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if not 0 < self.tol_converge < 1:
            raise ValueError("tol_converge must lie in (0, 1)")
        if 1.0 - math.sqrt(self.tol_converge) == 1.0:     # tol <= 2^-108
            raise ValueError("tol_converge must exceed 2^-108, below which the cut "
                             "1 - sqrt(tol) rounds to 1")
        if self.memory_cap < 1:
            raise ValueError("memory_cap must be >= 1")


@dataclass(frozen=True)
class StateTensor:
    """Degree-m moment matrix of a state, shape (n^m, n^m).

    Entry ((i1..im), (k1..km)) in lexicographic tuple order holds the state's
    value at u_(i1,k1)...u_(im,km); every row sums to 1.

    ``entries`` is an array, or, for ``gram_state``, a ``_GramRows`` that
    computes the rows it is indexed with; ``cesaro_limit`` reads only rows.

    A state that is unchanged when every row index, or every column index, of
    a tuple is moved by the same element c of a label group acting freely on
    Z_n (``label_orbits.label_symmetry``) can be stored as its shift block.
    ``shift`` names the group: "shift", x -> x + c mod n, or "xor",
    x -> x XOR c (n a power of two); None stores the whole tensor.  Then
    ``entries`` is B = n T[i1=1, k1=1], of side n^(m-1), indexed by the
    remaining entries of the tuples, and T[x, y] = B[X, Y] / n, where X is
    x moved so that its first index is 1: x_t - x_1 mod n, or x_t XOR x_1.
    In the orthonormal basis of the orbits of the moves B is T restricted to
    the invariant vectors, and T vanishes on their complement, so row sums,
    trace, products and the fixed space carry over.
    """

    n: int
    m: int
    entries: np.ndarray = field(repr=False)
    shift: str | None = None                   # None, "shift" or "xor"

    @property
    def scale(self) -> int:
        """Ratio of a stored entry to the tensor entry it stands for."""
        return self.n if self.shift else 1

    def index(self, tuples: np.ndarray) -> np.ndarray:
        """Row (or column) of ``entries`` holding each 0-based index tuple
        along the last axis of ``tuples``."""
        if self.shift == "xor":
            tuples = tuples[..., 1:] ^ tuples[..., :1]
        elif self.shift:
            tuples = (tuples[..., 1:] - tuples[..., :1]) % self.n
        return tuples @ self.n ** np.arange(tuples.shape[-1] - 1, -1, -1)

    def tuples(self) -> np.ndarray:
        """The 0-based m-tuple stored at each row of ``entries``, shape
        (rows, m); a shift block stores the tuples whose first index is 0."""
        free = self.m - 1 if self.shift else self.m
        size = self.n ** free
        digits = np.arange(size)[:, None] // self.n ** np.arange(free - 1, -1, -1) % self.n
        return np.hstack([np.zeros((size, self.m - free), dtype=int), digits])

    def rotation(self) -> np.ndarray:
        """pi: the row of ``entries`` holding each stored tuple rotated
        cyclically by one position; pi^m is the identity."""
        return self.index(np.roll(self.tuples(), 1, axis=1))

    def rotated(self) -> "StateTensor":
        """Tensor with both index tuples cyclically rotated by one position;
        traciality of a state makes this a fixed point."""
        pi = self.rotation()
        return StateTensor(self.n, self.m, self.entries[np.ix_(pi, pi)], self.shift)


def _cyclic_rows(model: FlatModel, m: int, tuples: np.ndarray,
                 pinned: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """n times the degree-m trace state at the row tuples ``tuples`` (shape
    (rows, m), 0-based), over every column tuple in lexicographic order, from
    the closed-form cyclic Gram product
    tr(v_(p1)...v_(pm)) = ( prod_t <xi_(pt), xi_(p(t+1))> ) <xi_(pm), xi_(p1)>,
    each entry's factors multiplied left to right.

    ``pinned`` fixes the first pair p1 at (1, 1): the row tuples then start
    with 0, and the rows are those of the shift block B = n T[i1=1, k1=1]
    over the column tuples of the other m - 1 pairs, whichever label group
    the block is stored over.

    The rows are written into ``out`` when it is given (C-contiguous, of
    shape (rows, n^free)) and returned: the last product fills it and the
    closing factor is multiplied in place, so no intermediate exceeds 1/n of
    the rows.
    """
    n, count = model.n, len(tuples)
    free = m - 1 if pinned else m
    if out is None:
        out = np.empty((count, n ** free), dtype=complex)
    if m == 1:
        out.fill(1)
        return out
    full = out.reshape((count,) + (n,) * free)     # a view of out
    # F[i, j, k, l] = <xi_ik, xi_jl>: the factor between row indices i and j
    F = np.ascontiguousarray(model.gram.transpose(0, 2, 1, 3))
    i = tuples.T                                   # i[t]: row index of pair p(t+1)
    # one axis per free column index, in tuple order: G[p1, p2] first
    rows = F[0, i[1], 0] if pinned else F[i[0], i[1]]
    for t in range(1, m - 1):                      # times G[p(t+1), p(t+2)]
        step = F[i[t], i[t + 1]].reshape((count,) + (1,) * (t - pinned) + (n, n))
        rows = np.multiply(rows[..., None], step, out=full if t == m - 2 else None)
    if pinned:                                     # times G[pm, p1]
        close = F[i[m - 1], 0, :, 0].reshape((count,) + (1,) * (m - 2) + (n,))
    else:
        close = F[i[m - 1], i[0]].transpose(0, 2, 1).reshape((count, n) + (1,) * (m - 2) + (n,))
    np.multiply(rows, close, out=full)
    return out


@functools.cache
def _stored_tuples(n: int, m: int, shift: str | None) -> np.ndarray:
    """``StateTensor.tuples`` of a shape, built once per shape, read-only."""
    tuples = StateTensor(n, m, None, shift).tuples()
    tuples.flags.writeable = False
    return tuples


class _GramRows:
    """The stored matrix of a model's degree-m trace state (or shift block),
    computed from the Gram table a batch of rows at a time: indexing it with
    row numbers returns those rows, as an ``entries`` array would, and
    ``np.take`` along axis 0 fills them into a given array.  Nothing of
    side^2 size is ever held."""

    def __init__(self, model: FlatModel, m: int, shift: str | None):
        self.model, self.m, self.shift = model, m, shift
        self.shape = (model.n ** (m - bool(shift)),) * 2
        self.tuples = _stored_tuples(model.n, m, shift)

    def __getitem__(self, rows) -> np.ndarray:
        return self.take(rows)

    def take(self, rows, axis: int = 0, out: np.ndarray | None = None,
             mode: str = "raise") -> np.ndarray:
        """``ndarray.take`` along axis 0, the one axis served: the rows at
        row numbers ``rows``, written into ``out`` (C-contiguous) when it is
        given.  A row number out of range raises whatever ``mode``."""
        if axis != 0:
            raise ValueError("a _GramRows is taken along axis 0 only")
        out = _cyclic_rows(self.model, self.m, self.tuples[rows], bool(self.shift), out)
        if not self.shift:
            out /= self.model.n
        return out


def gram_state(model: FlatModel, m: int, shift: str | None = None) -> StateTensor:
    """The degree-m trace state, or its shift block over the label group
    ``shift`` (see ``StateTensor``), with its
    rows computed on demand (see ``_GramRows``): what the probe solves."""
    return StateTensor(model.n, m, _GramRows(model, m, shift), shift)


def trace_state(model: FlatModel, m: int, shift: str | None = None,
                memory_cap: int = 2 * GIB) -> StateTensor:
    """Degree-m moment matrix of tr(.)/n composed with the model, or its
    shift block over the label group ``shift``: a ``gram_state`` built whole."""
    T = gram_state(model, m, shift)
    side = T.entries.shape[0]
    if 16 * side ** 2 > memory_cap:
        raise MemoryCap(f"degree {m} tensor needs {16 * side ** 2} bytes "
                        f"> cap {memory_cap}")
    return StateTensor(T.n, m, T.entries[:side], shift)


# --- Cesaro limits -----------------------------------------------------------

@dataclass
class CesaroResult:
    n: int
    m: int
    shift: str | None                      # layout of the input, which the limit keeps
    converged: bool                        # every kept eigenvalue within tol of 1
    fixed_dim: int                         # rank of the limit, i.e. its fix moment
    gap: float | None                      # 1 - largest eigenvalue of H left out
    vectors: np.ndarray = field(repr=False)   # orthonormal Vk with limit Vk Vk*
    sectors: list                          # side of each rotation sector, solved or mirrored
    traciality_residual: float             # the split's gate, / scale: |M - M[pi][:, pi]|,
                                           # on a gram_state over the rows at pi(reps)
    theta_residual: float                  # max |Im Q* T_s Q| / scale over solved sectors
    mirror_residual: float                 # max |T - conj T| / scale over the rows at reps
    invariance_residual: float             # |L T - L|_F, L = Vk Vk*, of the tensor
    iterations: ClassVar[int] = 0          # no powers are taken; bench/tracing.py reads it
    curve: ClassVar[tuple] = ()            # so no curve either; bench/tracing.py reads it


class _Sector(NamedTuple):
    members: np.ndarray        # the orbits a with order | s |a|: Theta-fixed, lesser, greater
    rows: np.ndarray           # rows[d, a] = pi^d a: where a lifted vector lives
    left: np.ndarray           # conj(root) as a column, and
    root: np.ndarray           # theta_a scale_a |a| / sqrt(m): T_s = left root^T C[s]
    lift: np.ndarray           # lift[d, a] = chi^(s d) theta_a scale_a at rows[d, a]
    fixed: int                 # members[:fixed] are Theta-fixed; then come the
    pairs: int                 # lesser l < r(l) of each Theta-pair, then the r(l)


class _SectorPlan(NamedTuple):
    pi: np.ndarray             # see StateTensor.rotation
    reps: np.ndarray           # least row of each pi-orbit
    orbits: np.ndarray         # orbits[d, a] = pi^d reps[a]
    sizes: np.ndarray          # |a|
    chi: np.ndarray            # chi[s, d] = chi^(s d)
    sectors: tuple             # one _Sector per character s


def _pair_scales(size: int) -> tuple:
    """Scales (c, c') of the lesser and greater member of a Theta-pair of
    orbits of this size: c = sqrt(1 / (2 size)) rounded, and c' so that
    c^2 + c'^2 = 1 / size to within a rounding of 1/size, which keeps the
    lifted vectors' norms free of the bias of a squared rounded root."""
    c = math.sqrt(0.5 / size)
    return c, math.sqrt(float(Fraction(1, size) - Fraction(c) ** 2))


@functools.cache
def _sector_plan(n: int, m: int, shift: str | None, order: int) -> _SectorPlan:
    """Orbits and sectors of Z_order, generated by the rotation pi, on the
    rows of a degree-m matrix stored as StateTensor(n, m, ., shift); order
    is m, or 1 for the whole matrix as one sector.

    Each sector is stated in its Theta-real basis Q (see the module
    docstring).  With rho(rep a) = pi^(c_a) rep r(a), Theta sends e_a to
    phi_a e_r(a), phi_a = chi^(-s c_a).  Q = diag(theta scale sqrt|a|) Q1:
    theta_a is a square root of phi_a where r(a) = a, 1 at the lesser and
    phi_a at the greater member of a pair {a, r(a)}; scale_a is 1/sqrt(|a|)
    where r(a) = a and about 1/sqrt(2 |a|) on a pair (``_pair_scales``); Q1
    maps each pair (e_l, e_g) to (e_l + e_g, i (e_l - e_g)).  The phases are
    read off a table of 2m-th roots of unity at the signed character
    s' = s or s - m in (-m/2, m/2], so that sector m - s gets the conjugate
    phases of sector s.  The plan depends on the shape only, so it is built
    once per shape, and its arrays are read-only."""
    layout = StateTensor(n, m, None, shift)             # reads no entries
    pi = layout.rotation()
    powers = [np.arange(pi.size)]                      # powers[d][x] = pi^d x
    for _ in range(order - 1):
        powers.append(pi[powers[-1]])
    powers = np.array(powers)
    least = powers.min(axis=0)
    reps = np.flatnonzero(least == powers[0])          # least of each orbit
    orbits = powers[:, reps]
    sizes = order // np.count_nonzero(orbits == reps, axis=0)
    d, a = np.nonzero(np.arange(order)[:, None] < sizes)
    offset = np.empty(pi.size, dtype=int)               # x = pi^offset[x] rep, offset < |a|
    offset[orbits[d, a]] = d
    image = layout.index(layout.tuples()[reps, ::-1])  # rho(rep a)
    r = np.searchsorted(reps, least[image])
    c = offset[image]
    chi = np.exp(2j * np.pi / order * np.outer(np.arange(order), np.arange(order)))
    roots = np.exp(1j * np.pi / order * np.arange(2 * order))    # 2m-th roots of unity
    scales = np.array([(0.0,) * 3] + [(1 / math.sqrt(k), *_pair_scales(k))
                                      for k in range(1, order + 1)])   # [|a|, kind]
    sectors = []
    for s in range(order):
        signed = s if 2 * s <= order else s - order
        members = np.flatnonzero(sizes * s % order == 0)
        lesser = members[members < r[members]]
        members = np.concatenate([members[members == r[members]], lesser, r[lesser]])
        f, p = members.size - 2 * lesser.size, lesser.size
        kind = np.repeat([0, 1, 2], [f, p, p])          # Theta-fixed, lesser, greater
        twice = -signed * c[members] * np.array([1, 0, 2])[kind]     # theta = roots[twice]
        size = sizes[members]
        scale = scales[size, kind]
        root = roots[twice % (2 * order)] * scale * size / math.sqrt(order)
        lift = roots[(2 * signed * np.arange(order)[:, None] + twice) % (2 * order)] * scale
        sectors.append(_Sector(members, orbits[:, members], root.conj()[:, None], root, lift,
                               f, p))
    plan = _SectorPlan(pi, reps, orbits, sizes, chi, tuple(sectors))
    for array in plan[:-1] + tuple(a for sector in sectors for a in sector[:-2]):
        array.flags.writeable = False
    return plan


def _workspace_entries(side: int, R: int, order: int, batch: int, gated: bool) -> int:
    """Complex entries of ``_sector_rows``'s workspace for batches of
    ``batch`` representatives out of R, on a stored matrix of side ``side``:
    their rows (and, ``gated``, the rows at their images under pi), the
    orbit gather and the character blocks, order * batch * R entries each."""
    return (1 + gated) * batch * side + 2 * order * batch * R


def _sector_rows(M, plan: _SectorPlan, gated: bool = False) -> tuple:
    """The blocks C[s][a, b] = sum_d chi^(sd) M[rep a, pi^d rep b] of every
    character s over every pair of representatives, each transposed: Ct[s]
    = C[s]^T, whose gather on a sector's members is the sector block in
    column-major order (see ``cesaro_limit``).  They are formed from the
    rows of M at the representatives, ``ROW_BATCH`` entries at a time; M is
    an ``entries`` array or a ``_GramRows``.  With ``gated``, also the
    traciality of those rows, max |P[:, pi] - M[reps]| over the rows
    P = M[pi(reps)], which are built on their own (0.0 otherwise).  Last,
    2 max |Im M[reps]| = max |M[reps] - conj M[reps]|: the mirror gate.

    Every large array of a batch is a view of one workspace, allocated once
    per call (``_workspace_entries``): a heap block of one recurring size,
    which the allocator hands out again on the next call, where a dozen
    temporaries of a few hundred kB made it return the heap top to the
    system after every call and fault it back in on the next.  With one
    batch, Ct is the workspace's character blocks."""
    R, order, side = plan.reps.size, len(plan.sectors), M.shape[0]
    step = min(R, max(1, ROW_BATCH // side))
    work = np.empty(_workspace_entries(side, R, order, step, gated), dtype=complex)
    Ct = [np.empty((R, R), dtype=complex) for _ in range(order)] if step < R else None
    worst = imag = 0.0
    for start in range(0, R, step):
        reps = plan.reps[start:start + step]
        b = reps.size
        k, g = (1 + gated) * b * side, order * b * R
        built = work[:k].reshape(-1, side)
        rows, rotated = built[:b], built[b:]
        gather, blocks = work[k:k + g], work[k + g:k + 2 * g]
        # clip: "raise" would first copy out, and the indices are the plan's
        np.take(M, np.concatenate([reps, plan.pi[reps]]) if gated else reps,
                axis=0, out=built, mode="clip")
        taken = blocks.reshape(b, order, R)        # [a, d, c]: M[rep a, pi^d rep c],
        np.take(rows, plan.orbits, axis=1, out=taken, mode="clip")
        np.copyto(gather.reshape(order, R, b), taken.transpose(1, 2, 0))   # as [d, c, a]
        np.matmul(plan.chi, gather.reshape(order, -1), out=blocks.reshape(order, -1))
        if Ct is None:                             # one batch: its blocks are Ct
            Ct = list(blocks.reshape(order, R, R))
        else:
            for Cs, block in zip(Ct, blocks.reshape(order, R, b)):
                Cs[:, start:start + b] = block
        # |Im rows| in the gather, free now: side <= order R, so it fits
        dist = np.abs(rows.imag, out=gather.view(float)[:b * side].reshape(b, side))
        imag = max(imag, float(dist.max()))
        if gated:                                  # P[:, pi] - rows in the gather, |.| over P
            moved = gather[:b * side].reshape(b, side)
            np.take(rotated, plan.pi, axis=1, out=moved, mode="clip")
            np.subtract(moved, rows, out=moved)
            dist = np.abs(moved, out=rotated.reshape(-1).view(float)[:b * side].reshape(b, side))
            worst = max(worst, float(dist.max()))
    return Ct, worst, 2 * imag


def _theta_real(X: np.ndarray, fixed: int, pairs: int) -> np.ndarray:
    """X <- Q1* X Q1, in place, and X, where Q1 maps each Theta-pair of
    basis vectors (e_l, e_g) to (e_l + e_g, i (e_l - e_g)): after the first
    ``fixed`` rows and columns come the lesser, then the greater member of
    each pair."""
    if pairs:
        a, b = X[:, fixed:fixed + pairs], X[:, fixed + pairs:]
        X[:, fixed:fixed + pairs], X[:, fixed + pairs:] = a + b, 1j * (a - b)
        a, b = X[fixed:fixed + pairs], X[fixed + pairs:]
        X[fixed:fixed + pairs], X[fixed + pairs:] = a + b, -1j * (a - b)
    return X


def _invariance_defect(A: np.ndarray, Y: np.ndarray) -> float:
    """||Y* A - Y*||_F^2 for the block A of T in a sector's Theta-real basis
    and its kept vectors Y there: the sector's share of |L T - L|_F^2."""
    Yh = Y.conj().T
    D = Yh @ A
    D -= Yh
    return float(np.vdot(D, D).real)


def cesaro_limit(T: StateTensor, cfg: ProbeConfig | None = None) -> CesaroResult:
    """Limit of (1/r) sum_(s<=r) T^s: the orthogonal projector onto ker(T - I).

    T must be a contraction, as every trace-state tensor is.  The eigenvalues
    of H = (T + T*)/2 above 1 - sqrt(tol) span the fixed space.  The limit is
    certified (``converged``) when each of them lies within tol of 1;
    otherwise the fixed space is ambiguous at this tolerance, which is
    reported, never raised.  ``gap`` is None when every eigenvalue is kept.
    A shift block gives the limit as a shift block; the eigenvalue 0 of the
    complement it leaves out counts towards the gap.

    When rotating both tuples leaves T unchanged within ``TRACIAL_TOL``, H is
    solved in its m rotation sectors (see the module docstring); otherwise
    whole, as one sector.  The gate reads the whole of a dense ``entries``
    array.  On a ``gram_state`` it reads the rows at pi(reps), built on their
    own, against the rows at the representatives rotated: there a rotation
    only reorders the factors of each cyclic product, so the two differ by
    rounding (and, on shift blocks, by the Gram table's distance from shift
    invariance) alone.  Either way only the rows at the representatives
    enter the solve: each sector block T_s of T is formed from them, and
    B_s = (T_s + T_s*)/2.  When those rows are real within the gate, each
    sector s > m/2 takes the conjugates of sector m - s's vectors; every
    other sector is solved in its Theta-real basis, as a real matrix when
    the imaginary part of T_s there is within the gate.
    The kept vectors W of each solve get one Newton-Schulz step
    W (3 I - W* W) / 2, which brings their loss of orthonormality (a few
    times k eps from the eigensolver) down to rounding.  The result holds the
    kept eigenvectors Vk; the limit Vk Vk* itself is never formed.
    ``invariance_residual`` is |L T - L|_F, summed over the sectors as
    ||Y* T_s - Y*||_F^2 with Y the sector's kept vectors.
    """
    cfg = cfg or ProbeConfig()
    M = T.entries
    side = M.shape[0]
    gate = TRACIAL_TOL * T.scale
    plan = _sector_plan(T.n, T.m, T.shift, T.m)
    if isinstance(M, np.ndarray):
        rotated = M[np.ix_(plan.pi, plan.pi)]      # the gate's one side^2 copy,
        rotated -= M                               # differenced in place
        tracial = float(np.abs(rotated).max()) / T.scale
        del rotated                                # and freed before the solve
        if tracial > TRACIAL_TOL:
            plan = _sector_plan(T.n, T.m, T.shift, 1)
        Ct, _, mirror = _sector_rows(M, plan)
    else:
        Ct, tracial, mirror = _sector_rows(M, plan, gated=True)
        tracial /= T.scale
        if tracial > TRACIAL_TOL:
            plan = _sector_plan(T.n, T.m, T.shift, 1)
            Ct, _, mirror = _sector_rows(M, plan)
    order = len(plan.sectors)
    real = mirror <= gate                          # sector m - s is the conjugate of s
    solved = order // 2 + 1 if real else order
    del Ct[solved:]
    cut = 1.0 - math.sqrt(cfg.tol_converge)
    blocks, sectors = [None] * order, [0] * order
    spectra = [None] * order                       # (eigenvalues, number kept) of each solve
    theta = defect2 = 0.0
    # the dels free each matrix of a sector's side once used (2344 wide at degree 7)
    for s in range(solved):
        sector = plan.sectors[s]
        mirrored = real and 0 < s < order - s      # sector order - s is lifted from s
        # T_s = C[s] on the sector's members, with Q's phases and scales: one
        # np.ix_ copy of Ct[s], scaled in place and read transposed, so that T_s
        # is column-major, the layout its invariance product is rounded in
        Ts = Ct[s][sector.members[:, None], sector.members]   # T_s^T, unscaled
        Ct[s] = None                               # each Ct[s] is read once
        Ts *= sector.left.T
        Ts *= sector.root[:, None]
        Ts = Ts.T
        sectors[s] = Ts.shape[0]
        f, p = sector.fixed, sector.pairs
        At = _theta_real(Ts, f, p)                 # Q* T_s Q
        defect = float(np.abs(At.imag).max(initial=0.0))     # a sector may be empty
        theta = max(theta, defect)
        A = At.real + At.real.T                    # Q* B_s Q, B_s = (T_s + T_s*) / 2
        A *= 0.5
        if defect > gate:
            A = A + 0.5j * (At.imag - At.imag.T)
        lam, W = np.linalg.eigh(A)
        del A
        k = int(np.count_nonzero(lam > cut))             # lam ascends
        Y = W[:, lam.size - k:]
        del W
        if k:                                      # a sector that keeps no vector adds 0
            E = Y.conj().T @ Y                     # one Newton-Schulz step:
            E *= -0.5                              # Y (3 I - Y* Y) / 2
            E.reshape(-1)[::k + 1] += 1.5
            Y = Y @ E
            Z = Y
            if p:
                Z = Y.astype(complex)
                a, b = Y[f:f + p], Y[f + p:]
                Z[f:f + p], Z[f + p:] = a + 1j * b, a - 1j * b   # Q1 Y
            # a mirror's block S conj(A) S, vectors S conj(Y) (S = +-1): same share
            defect2 += (1 + mirrored) * _invariance_defect(At, Y)
        del Ts, At
        U = np.zeros((side, k), dtype=complex)
        if k:
            U[sector.rows] = sector.lift[:, :, None] * Z
        blocks[s], spectra[s] = U, (lam, k)
        if mirrored:
            blocks[order - s], spectra[order - s], sectors[order - s] = \
                U.conj(), spectra[s], sectors[s]
    Vk = np.hstack(blocks)
    # lam ascends, so the kept eigenvalues farthest from 1 are a solve's ends
    converged = all(abs(x - 1.0) <= cfg.tol_converge
                    for lam, k in spectra if k for x in (lam[-k], lam[-1]))
    top = [float(lam[-k - 1]) for lam, k in spectra if k < lam.size]   # largest left out
    if side < T.n ** T.m:
        top.append(0.0)
    gap = 1.0 - max(top) if top else None
    return CesaroResult(T.n, T.m, T.shift, converged, Vk.shape[1], gap, vectors=Vk,
                        sectors=sectors, traciality_residual=tracial,
                        theta_residual=theta / T.scale, mirror_residual=mirror / T.scale,
                        invariance_residual=math.sqrt(defect2))


# --- reports -----------------------------------------------------------------

@dataclass
class DegreeProbe:
    """One degree of the probe.  ``reduction`` names the path: "none" (the
    n^m tensor in rotation sectors), "shift" or "xor" (its shift block over
    translations or XOR of the labels, in rotation sectors) or "orbits" (the
    label orbits of a gated grid).  Fields whose meaning depends on the path
    say so; the others mean the same on all."""

    m: int
    reduction: str                         # "none", "shift", "xor" or "orbits"
    block_size: int                        # side of the stored matrix: n^m, or n^(m-1)
                                           # on shift blocks and on the orbit path
    sectors: list                          # side of each rotation sector, solved or
                                           # mirrored; orbits: [all-perp labels, their
                                           # orbits f_m]
    converged: bool                        # orbits: True, the count is exact
    fixed_space_dim: int
    spectral_gap: float | None
    fix_moment_estimate: float             # trace of Vk Vk*; orbits: the count itself
    catalan_target: int
    catalan_residual: float
    row_sum_error: float                   # orbits: 0.0, the rows of an orbit average sum
                                           # to 1 exactly
    traciality_residual: float             # |T - T rotated|, on the input; orbits: the
                                           # DFT gate's max |g^ - n [beta = f(alpha)]|
    theta_residual: float                  # max |Im Q* T_s Q| over the solved sectors: the
                                           # gate of their real eigh (Q: Theta-real basis);
                                           # orbits: 0.0, no sector is solved
    mirror_residual: float                 # max |T - conj T| over the rows at the orbit
                                           # representatives: the gate of lifting m - s from s;
                                           # orbits: 0.0, no row is built
    invariance_residual: float             # |L T - L|_F of the tensor, read per sector;
                                           # at least the largest entry of L T - L; orbits:
                                           # 0.0, each P_alpha fixes the orbit indicators
    class_residuals: dict                  # orbits: from the closed form of the limit's
                                           # entries (``label_orbits.limit_entries``)


@dataclass
class ProbeReport:
    n: int
    basis_kind: str
    degrees: list
    verdict: str
    tol_converge: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "basis": self.basis_kind,
            "tol_converge": self.tol_converge,
            "degrees": [dict(vars(d)) for d in self.degrees],   # shallow: the fields in order
            "verdict": self.verdict,
        }

    def fix_moment_csv(self) -> str:
        lines = ["m,estimate,catalan,residual"]
        for d in self.degrees:
            lines.append(f"{d.m},{d.fix_moment_estimate!r},{d.catalan_target},"
                         f"{d.catalan_residual!r}")
        return "\n".join(lines) + "\n"


class _ClassPlan(NamedTuple):
    tags: tuple                # classes of degree m whose representative fits in n labels
    pairs: tuple               # 0-based (row tuple, column tuple) of each representative
    rows: np.ndarray           # row and column of each representative's entry
    cols: np.ndarray           # in the stored layout
    exact: tuple               # (numerator, denominator) of each closed form
    values: np.ndarray         # the closed forms as complex numbers


@functools.cache
def _class_plan(n: int, m: int, shift: str | None) -> _ClassPlan:
    """Where each class representative of degree m sits: its index tuples,
    which the orbit path reads, and its entry in a matrix stored as
    StateTensor(n, m, ., shift), which the sector path reads; and its exact
    Haar value.  Built once per shape, with read-only arrays."""
    tags = tuple(tag for tag in haar_exact.DEGREE_CLASS_TAGS.get(m, ())
                 if max(map(max, haar_exact.REPRESENTATIVES[tag])) <= n)
    exact = tuple(haar_exact.class_value(tag, n) for tag in tags)
    pairs = np.array([haar_exact.REPRESENTATIVES[tag] for tag in tags],
                     dtype=int).reshape(len(tags), m, 2) - 1
    layout = StateTensor(n, m, None, shift)
    tuples = tuple(tuple(map(tuple, p)) for p in pairs.transpose(0, 2, 1).tolist())
    plan = _ClassPlan(tags, tuples, layout.index(pairs[..., 0]), layout.index(pairs[..., 1]),
                      tuple((e.numerator, e.denominator) for e in exact),
                      np.array([complex(e) for e in exact], dtype=complex))
    for array in (plan.rows, plan.cols, plan.values):
        array.flags.writeable = False
    return plan


def _class_residuals(plan: _ClassPlan, est: np.ndarray) -> dict:
    """|limit entry - exact closed form| for every class representative of
    the plan, keyed by class tag, from the limit's entries ``est`` there."""
    return {tag: {"estimate": [re, im], "exact": list(exact), "residual": residual}
            for tag, re, im, exact, residual in zip(
                plan.tags, est.real.tolist(), est.imag.tolist(), plan.exact,
                np.abs(est - plan.values).tolist())}


@functools.cache
def _orbit_count(n: int, m: int, shift: str | None) -> int:
    """Number of pi-orbits on the stored rows of StateTensor(n, m, ., shift),
    by Burnside, without building them.  Rotating an m-tuple by d positions
    splits it into g = gcd(m, d) cycles of length k = m/g; it fixes n^g
    tuples.  On shift blocks a stored row is a tuple up to one of n label
    moves c, and the rotation fixes n^g tuples moved by c exactly when c^k
    is the identity: k c = 0 mod n for translations, and for XOR c = 0 or
    k even."""
    def returns(k: int, c: int) -> bool:           # c^k is the identity
        return c == 0 or k % 2 == 0 if shift == "xor" else k * c % n == 0

    moves = range(n) if shift else (0,)
    total = sum(n ** math.gcd(m, d) for d in range(m) for c in moves
                if returns(m // math.gcd(m, d), c))
    return total // (m * len(moves))


def _working_set(n: int, m: int, shift: str | None, orbits: bool = False) -> int:
    """Bytes the probe of degree m is allowed to need (see
    ProbeConfig.memory_cap).  On the sector path: the sector blocks C and
    SOLVE_SET more complex matrices of side R, the number of
    representatives, and the workspace of the gated row batches
    (``_workspace_entries``), counted apart from C, though a single batch
    holds C in it.  On the orbit path: the n label permutations of the
    all-perp labels (``label_orbits.label_perms``), their build and their
    orbits, ORBIT_WORK words per candidate label; twice the entries of the
    largest batch of orbit blocks; and, at degrees with class residuals, the
    same for all the side labels, whose orbits give the class entries
    (``label_orbits.limit_entries``)."""
    if orbits:
        labels = (n - 1) ** (m - 1)                # candidates, at least the all-perp labels
        largest = min(labels, label_orbits.orbit_bound(n, m))
        need = 8 * (n + ORBIT_WORK) * labels + 16 * max(label_orbits.GAP_BATCH, largest ** 2)
        if m in haar_exact.DEGREE_CLASS_TAGS:
            need += 8 * (n + ORBIT_WORK) * n ** (m - 1)
        return need
    side = n ** (m - bool(shift))
    R = _orbit_count(n, m, shift)
    batch = min(R, max(1, ROW_BATCH // side))
    return 16 * ((m + SOLVE_SET) * R ** 2 + _workspace_entries(side, R, m, batch, True))


def _takes_orbits(n: int, m: int, cap: int) -> bool:
    """Whether a gated grid is probed to degree m on the orbit path rather
    than in rotation sectors.  Where both working sets fit the cap, the
    orbit path is taken while its largest orbit block is at most ORBIT_SIDE
    times the sector side R.  On the first report call of a fresh process
    (2 vCPUs), at degree 4 the orbit path took 0.07-0.20 s against
    0.15-0.28 s at n = 12, 13 (bound 2.2-2.4 R), both about 0.37 s at n = 14
    (2.5 R), 0.67 against 0.56 s at n = 15 (2.6 R) and 10.6 against 4.1 s
    at n = 20 (2.9 R); at degree 5 it was 2.7 times faster at n = 10
    (1.5 R).  Where only one working set fits, that path; where neither
    does, the smaller, whose need the refusal reports."""
    orbit = _working_set(n, m, "shift", True)
    sector = _working_set(n, m, "shift")
    if orbit > cap or sector > cap:
        return orbit < sector
    return label_orbits.orbit_bound(n, m) <= ORBIT_SIDE * _orbit_count(n, m, "shift")


def refuse_over_cap(n: int, cfg: ProbeConfig, shift: str | None = "shift",
                    orbits: bool | None = None) -> None:
    """Raise MemoryCap when the probe of degree max_degree needs more than
    memory_cap (``_working_set``) on the path that ``shift`` and ``orbits``
    name.  With ``orbits`` None, on the translation-block path ``_takes_orbits``
    picks: the least need of any path the report can take at n (a full
    tensor never needs less than its shift block), so that the check reads
    n and the degree alone, and what it refuses the report refuses too."""
    m, cap = cfg.max_degree, cfg.memory_cap
    if orbits is None:
        orbits = _takes_orbits(n, m, cap)
    need = _working_set(n, m, shift, orbits)
    if need > cap:
        what = "label permutations and orbits" if orbits else "sector blocks and rows"
        raise MemoryCap(f"degree {m} needs about {need} bytes for its {what} "
                        f"> cap {cap}; refusing up front")


def inner_faithfulness_report(model: FlatModel, cfg: ProbeConfig | None = None,
                              progress: Callable | None = None) -> ProbeReport:
    """Run the probe at degrees 1..max_degree and aggregate the evidence.

    The verdict only ever states consistency or deviation of the estimated
    Hopf-image Haar values relative to the closed forms, or that the first
    degree without a certified fixed space leaves them open; it is data about
    the model, not a proof about the quantum group.  The first degree that
    deviates or is not certified decides the verdict, read off the integer
    fixed_dim: at n >= 4 the Hopf image fixes the C_m dimensions S_n^+ fixes,
    so fewer means the cut dropped eigenvalues of 1, and is inconclusive.

    A model with a label group (``FlatModel.symmetry``, decided once per
    model) is probed on shift blocks over that group, of side n^(m-1) in
    place of n^m; every field of the report is the same as on the full
    tensors, and ``reduction`` names the group ("shift" or "xor").  Each
    degree is solved from its ``gram_state``, so no matrix of the solved
    side squared is built.  When the table also has a label graph and
    ``_takes_orbits`` picks the orbit path for max_degree, every degree is
    read off its ``label_orbits.orbit_plan`` and the class entries off
    ``label_orbits.limit_entries``; the fix moment is then the exact count.
    ``progress``, when given, is called after each degree with its
    ``DegreeProbe``, the number of rotation-orbit representatives (None on
    the orbit path) and the seconds the degree took.
    """
    cfg = cfg or ProbeConfig()
    n = model.n
    shift, graph = model.symmetry
    if graph is not None and not _takes_orbits(n, cfg.max_degree, cfg.memory_cap):
        graph = None
    refuse_over_cap(n, cfg, shift, graph is not None)
    degrees = []
    worst_residual = 0.0
    verdict = None
    for m in range(1, cfg.max_degree + 1):
        start = time.perf_counter()
        classes = _class_plan(n, m, shift)
        if graph is not None:
            plan = label_orbits.orbit_plan(n, m, graph.f)
            entries = label_orbits.limit_entries(n, m, graph.f, classes.pairs) \
                if classes.tags else classes.values     # no class: both are empty
            est, reps = float(plan.fixed), None    # the count is exact
            path = dict(reduction="orbits", block_size=n ** (m - 1),
                        sectors=[plan.labels, plan.counts[-1]], converged=True,
                        fixed_space_dim=plan.fixed, spectral_gap=1.0 - plan.top,
                        row_sum_error=0.0, traciality_residual=graph.residual,
                        theta_residual=0.0, mirror_residual=0.0, invariance_residual=0.0)
        else:
            T = gram_state(model, m, shift)
            result = cesaro_limit(T, cfg)
            Vk = result.vectors
            entries = np.einsum("ij,ij->i", Vk[classes.rows], Vk[classes.cols].conj()) / T.scale
            est = float(np.sum(Vk.real ** 2 + Vk.imag ** 2))     # trace of Vk Vk*, real
            reps = None if progress is None else \
                _sector_plan(n, m, shift, len(result.sectors)).reps.size
            path = dict(reduction=shift or "none", block_size=T.entries.shape[0],
                        sectors=result.sectors, converged=result.converged,
                        fixed_space_dim=result.fixed_dim, spectral_gap=result.gap,
                        row_sum_error=float(np.abs(Vk @ Vk.sum(axis=0).conj() - 1.0).max()),
                        traciality_residual=result.traciality_residual,
                        theta_residual=result.theta_residual,
                        mirror_residual=result.mirror_residual,
                        invariance_residual=result.invariance_residual)
        target = haar_exact.catalan(m)
        degree = DegreeProbe(m=m, fix_moment_estimate=est, catalan_target=target,
                             catalan_residual=abs(est - target),
                             class_residuals=_class_residuals(classes, entries), **path)
        degrees.append(degree)
        if progress is not None:
            progress(degree, reps, time.perf_counter() - start)
        worst_residual = max(worst_residual, degree.catalan_residual)
        fixed = degree.fixed_space_dim
        if verdict is None and not degree.converged:
            verdict = (f"inconclusive at degree {m}: not every eigenvalue of the "
                       f"{fixed}-dimensional fixed space lies within "
                       f"{cfg.tol_converge:.2e} of 1")
        elif verdict is None and n >= 4 and fixed < target:
            verdict = (f"inconclusive at degree {m}: {fixed} eigenvalues "
                       f"passed the cut 1 - sqrt(tol), fewer than the C_{m} = {target} "
                       f"that every model at n >= 4 fixes")
        elif verdict is None and fixed != target:
            verdict = (f"deviates at degree {m} by {degree.catalan_residual:.6g} "
                       f"(fix-moment estimate vs Catalan target)")
    if verdict is None:
        verdict = (f"consistent with inner faithfulness up to degree "
                   f"{cfg.max_degree} at tolerance {max(worst_residual, cfg.tol_converge):.2e}")
    return ProbeReport(n=n, basis_kind=model.basis.kind,
                       degrees=degrees, verdict=verdict,
                       tol_converge=cfg.tol_converge)
