"""The label symmetry of a Gram table, and the orbit path of the
convolution probe.

``label_symmetry`` decides once per flat model (``FlatModel.symmetry``)
how the probe stores its trace states.  Every trace-state entry is a
cyclic product of Gram entries, so a move sigma of the pairs (i, j) that
leaves G unchanged up to a gauge, G[sigma p, sigma q] = D_p G[p, q]
conj(D_q) for a diagonal D of unit phases, leaves every entry unchanged:
the phases cancel around the cycle.  The moves tried are those of all row
labels together, and of all column labels together, by a generator of a
group acting freely on Z_n: translation by 1 mod n ("shift"), or, when n
is a power of two, XOR with each power of two below n ("xor"); every
other move of the group is a product of these, and gauges multiply.  The
gauge is read off a breadth-first tree over the nonzero Gram entries
(``gauge_residual``), and a move passes when the table it gives is within
TRACIAL_TOL of D G D*; a badly built D can only make the gate decline.
Translations are tried first, so the root-of-unity grids, re-phased or
not, are stored as translation blocks, and the 4x4 grid, whose Gram
table needs a sign gauge for every XOR move, as XOR blocks.

On the root-of-unity grids the fixed space of ``convolution_probe``'s
moment matrices is an orbit count, and no matrix of the stored side need
be solved.  Let G[i, j, k, l] = g(k - i, l - j) (shift invariance), and
take the labels a in Z_n^m as coordinates, phi_a(x) = n^(-m/2)
omega^(a.x), omega = exp(2 pi i / n), with the 2-D DFT
g^(alpha, beta) = sum_(p,q) g(p, q) omega^(alpha p + beta q).  Each Gram
factor of an entry of T is then a sum over one pair (alpha_t, beta_t), and
summing out the row and column indices forces alpha_t = alpha + S_t and
beta_t = beta - (b_1 + ... + b_t), with S_t = a_1 + ... + a_t:

    T^F[a, b] = n^(-1-m) sum_(alpha, beta) prod_(t=1..m) g^(alpha_t, beta_t)

when sum a = sum b = 0 (the shift-invariant vectors), and 0 otherwise.  The
gate (``label_graph``, after the plain ``shift_invariant``, both within
TRACIAL_TOL; the proof reads G itself, so no gauge is allowed) asks that
g^(alpha, beta) = n [beta = f(alpha)] for a permutation f of Z_n.  Then a
term is n^m when beta_t = f(alpha + S_t) for every t and 0 otherwise, so
T^F = (1/n) sum_alpha P_alpha, where P_alpha sends the label a to b,
b_t = f(alpha + S_(t-1)) - f(alpha + S_t).  Read as a closed walk
S_0 = 0, S_1, ..., S_m = 0 up to translation, a label is mapped by
x -> -f(alpha + x) on the walk's vertices; f is a bijection, so P_alpha is a
permutation that keeps the positions of the entries 0.  On the
root-of-unity grids f(alpha) = -alpha, except that f(0) = 1 and f(-1) = 0.

H^F = (1/2n) sum_alpha (P_alpha + P_alpha^T) averages unit vectors P v when
|v| = 1, and the ball is strictly convex, so H^F v = v exactly when every
P_alpha v = v: the fixed space is spanned by the indicators 1_o of the
orbits o of the group the P_alpha generate, its dimension is their number,
with no eigenvalue cut, and the limit is the orbit average
sum_o 1_o 1_o^T / |o|.  Deleting the entries 0 of a label turns P_alpha
into the P_alpha of the lower degree on the all-perp labels (those without
an entry 0), so with f_k the number of orbits of the all-perp labels of
degree k (f_0 = 1),

    fixed_dim(m) = sum_k C(m, k) f_k,

and the spectrum of H^F at degree m is the union of the all-perp spectra
of the degrees k <= m; the complement of the shift-invariant vectors adds
the eigenvalue 0.  The gap is 1 minus the largest second eigenvalue of
(P_o + P_o^T)/2 on an all-perp orbit o of degree <= m, P_o the mixture on
o.  Every label of an orbit is the walk moved by one element of the group
K generated by the translations and x -> -f(x), and the walks moved by the
n elements of one coset of the translations are one label.  The moved walk
depends only on where the element sends the walk's d <= min(m, n) distinct
vertices, an injection up to translation, so an orbit has at most
(n - 1)! / (n - d)! labels (``orbit_bound``), (n-1)(n-2)(n-3) at degree 4;
the largest orbit meets the bound at every n = 5..10, m <= 6 checked.  The
orbit path (``orbit_plan``) forms the n permutations of the all-perp
labels, finds their orbits by label propagation and the gap by one
``eigvalsh`` per batch of orbits of one size.  Nothing of the stored side
is formed.  Entries of the limit come in closed form (``limit_entries``):
phi_a(x) = n^(-m/2) omega^(a.x) takes the orbit average to

    L[x, y] = n^(-m) sum_o |o|^(-1) A_o(x) conj A_o(y),
    A_o(x) = sum_(a in o) omega^(a.x),

over the orbits o of all n^(m-1) labels with sum 0, and a.x depends only on
the differences x_t - x_1, as sum a = 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

GAP_BATCH = 2 ** 20                        # entries of the orbit blocks one eigvalsh solves
TRACIAL_TOL = 1e-12                        # gate of the label symmetry (``label_symmetry``,
                                           # ``label_graph``) and of the probe's rotation split
                                           # and dihedral steps (``convolution_probe``)


class LabelGraph(NamedTuple):
    """The support of a gated Gram table's 2-D DFT (``label_graph``)."""

    f: tuple                   # g^(alpha, beta) = n exactly when beta = f[alpha]
    residual: float            # max |g^ - n [beta = f(alpha)]|


class LabelSymmetry(NamedTuple):
    """What ``label_symmetry`` finds in a Gram table."""

    group: str | None          # the label moves that keep the trace states: "shift"
                               # (translations mod n), "xor" (XOR of the labels) or None
    graph: LabelGraph | None   # the orbit path's label graph: only on a table that is
                               # shift-invariant without a gauge


@functools.cache
def root_table(n: int) -> np.ndarray:
    """R[a, x] = omega^(a x), omega = exp(2 pi i / n); read-only."""
    roots = np.exp(2j * np.pi / n * np.arange(n))
    table = roots[np.outer(np.arange(n), np.arange(n)) % n]
    table.flags.writeable = False
    return table


def shift_invariant(gram: np.ndarray) -> bool:
    """Whether <xi_ij, xi_kl> is unchanged, within ``TRACIAL_TOL``, by
    shifting i and k together, and j and l together (indices mod n), with
    no gauge: the first gate of the orbit path."""
    back = np.arange(-1, len(gram) - 1)            # i - 1 mod n
    return bool(np.abs(gram[back][:, :, back] - gram).max() <= TRACIAL_TOL
                and np.abs(gram[:, back][..., back] - gram).max() <= TRACIAL_TOL)


def label_graph(gram: np.ndarray) -> LabelGraph | None:
    """The orbit path's second gate, for a Gram table that passed
    ``shift_invariant``: the 2-D DFT g^(alpha, beta) = sum_(p,q) g(p, q)
    omega^(alpha p + beta q) of g(p, q) = <xi_11, xi_(1+p, 1+q)> must equal
    n on the graph of a permutation f and 0 elsewhere, within ``TRACIAL_TOL``.
    Returns f and the largest distance, or None when the table fails."""
    n = len(gram)
    R = root_table(n)
    ghat = R @ gram[0, 0] @ R
    f = np.abs(ghat).argmax(axis=1)
    ghat[np.arange(n), f] -= n
    residual = float(np.abs(ghat).max())
    f = tuple(f.tolist())
    if residual > TRACIAL_TOL or len(set(f)) < n:
        return None
    return LabelGraph(f, residual)


def gauge_residual(gram: np.ndarray, moved: np.ndarray) -> float:
    """max |M - D G D*|, with G = ``gram`` and M = ``moved`` read as
    matrices over the n^2 pairs, for the diagonal D of unit phases read off
    a breadth-first tree over the nonzero entries of G: D = 1 at the pair
    (1, 1), and each round every pair q not yet placed that a placed pair p
    reaches, through its largest |G[p, q]| above ``TRACIAL_TOL``, takes the
    phase that makes M[p, q] = D_p G[p, q] conj(D_q).  inf when the tree
    leaves a pair out, nan when a phase is undefined: the gate declines
    either way."""
    size = gram.shape[0] ** 2
    G, M = gram.reshape(size, size), moved.reshape(size, size)
    weight = np.abs(G)
    D = np.zeros(size, dtype=complex)
    D[0] = 1.0
    placed = np.zeros(size, dtype=bool)
    placed[0] = True
    while not placed.all():
        todo = np.flatnonzero(~placed)
        w = np.where(placed[:, None], weight[:, todo], 0.0)
        parent = w.argmax(axis=0)
        reached = w[parent, np.arange(todo.size)] > TRACIAL_TOL
        if not reached.any():
            return math.inf
        p, q = parent[reached], todo[reached]
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = (M[p, q] / (D[p] * G[p, q])).conj()
            D[q] = phase / np.abs(phase)
        placed[q] = True
    return float(np.abs(M - D[:, None] * G * D.conj()).max())


def _kept_up_to_gauge(gram: np.ndarray, move: np.ndarray) -> bool:
    """Whether moving every row label, and apart from that every column
    label, by the label permutation ``move`` leaves the Gram table unchanged
    up to a gauge, within ``TRACIAL_TOL``."""
    return all(gauge_residual(gram, moved) <= TRACIAL_TOL
               for moved in (gram[move][:, :, move], gram[:, move][..., move]))


def label_symmetry(gram: np.ndarray) -> LabelSymmetry:
    """The label group of a Gram table (module docstring), and its label
    graph when the table is shift-invariant without a gauge.  It never
    reads how the grid was built."""
    n = len(gram)
    labels = np.arange(n)
    if shift_invariant(gram):
        return LabelSymmetry("shift", label_graph(gram))
    if _kept_up_to_gauge(gram, (labels + 1) % n):
        return LabelSymmetry("shift", None)
    if n & (n - 1) == 0 and all(_kept_up_to_gauge(gram, labels ^ c)
                                for c in (1 << k for k in range(n.bit_length() - 1))):
        return LabelSymmetry("xor", None)
    return LabelSymmetry(None, None)


def orbit_bound(n: int, m: int) -> int:
    """The most labels an all-perp orbit of degree m can have on a gated
    grid: (n - 1)! / (n - d)!, d = min(m, n) (module docstring)."""
    return math.perm(n - 1, min(m, n) - 1)


class OrbitPlan(NamedTuple):
    labels: int                # all-perp labels of degree m
    orbit: np.ndarray          # orbit[x]: the least all-perp label in the orbit of label x
    counts: tuple              # f_0..f_m: orbits of the all-perp labels of each degree
    fixed: int                 # sum_k C(m, k) f_k, the fixed dimension
    top: float                 # largest second eigenvalue of (P + P^T)/2 on the all-perp
                               # orbits of every degree <= m; 0.0 when none has two labels


def label_perms(n: int, m: int, f: tuple, perp: bool) -> np.ndarray:
    """P[alpha, x] = P_alpha x on the labels a in Z_n^m with sum a = 0 (see
    the module docstring), numbered by (a_2..a_m) in lexicographic order,
    with a_1 = -(a_2 + ... + a_m); when ``perp``, on the all-perp labels (no
    entry 0), numbered among themselves in the same order."""
    low = int(perp)
    base, k = n - low, m - 1
    small = np.min_scalar_type(-2 * n)
    values = np.arange(low, n, dtype=small)
    # S[:, t] = a_1 + ... + a_t = -(a_(t+1) + ... + a_m) mod n; S_0 = S_m = 0
    S = np.zeros((base ** k, m + 1), dtype=small)
    for t in range(m - 1, 0, -1):
        a = np.tile(np.repeat(values, base ** (m - 1 - t)), base ** (t - 1))   # a_(t+1)
        np.subtract(S[:, t + 1], a, out=S[:, t])
        S[:, t] %= n
    if perp:
        keep = S[:, 1] != 0                        # a_1 != 0
        lookup = np.full(len(S), -1, dtype=np.intp)
        lookup[keep] = np.arange(np.count_nonzero(keep))
        S = S[keep]
    F = np.array(f, dtype=small)
    P = np.empty((n, len(S)), dtype=np.intp)
    code = np.empty(len(S), dtype=np.intp)
    for alpha in range(n):
        fc = F[(S + alpha) % n]                   # f(alpha + S_t)
        code.fill(0)
        for t in range(2, m + 1):                 # b_t = f(alpha + S_(t-1)) - f(alpha + S_t)
            code *= base
            code += (fc[:, t - 1] - fc[:, t]) % n - low
        P[alpha] = lookup[code] if perp else code
    return P


def orbits(P: np.ndarray) -> np.ndarray:
    """The least label of each label's orbit under the permutations P[alpha]:
    each sweep lowers every label to the least of its images' labels, then
    to its own label's label, until nothing moves.  At the fixed point the
    labels do not increase along any P[alpha], so they are constant on its
    cycles, and hence on orbits, and each orbit's least label keeps itself."""
    label = np.arange(P.shape[1])
    while True:
        least = label.copy()
        for p in P:
            np.minimum(least, least[p], out=least)
        least = least[least]
        if np.array_equal(least, label):
            return label
        label = least


def second_eigenvalue(P: np.ndarray, orbit: np.ndarray) -> float:
    """The largest second eigenvalue of H_o = (P_o + P_o^T)/2 over the orbits
    o of at least two labels, P_o = (1/n) sum_alpha P_alpha on o; 0.0 when
    there is none.  Orbits of one size are stacked, ``GAP_BATCH`` entries
    to one ``eigvalsh``."""
    n, L = P.shape
    size = np.bincount(orbit, minlength=L)      # at each orbit's least label
    order = np.argsort(orbit, kind="stable")     # the labels, orbit by orbit
    start = np.cumsum(size) - size               # where each orbit begins in order
    local = np.empty(L, dtype=np.intp)           # a label's place in its orbit
    local[order] = np.arange(L) - start[orbit[order]]
    reps = np.flatnonzero(size >= 2)
    top = 0.0
    for s in sorted(set(size[reps].tolist())):
        group = reps[size[reps] == s]
        per = max(1, GAP_BATCH // s ** 2)
        for first in range(0, group.size, per):
            batch = group[first:first + per]
            members = order[(start[batch][:, None] + np.arange(s)).reshape(-1)]
            which = np.repeat(np.arange(batch.size), s)
            here = local[members]
            H = np.zeros((batch.size, s, s))
            for p in P:
                there = local[p[members]]
                H[which, here, there] += 0.5 / n
                H[which, there, here] += 0.5 / n
            top = max(top, float(np.linalg.eigvalsh(H)[:, -2].max()))
    return top


@functools.cache
def limit_entries(n: int, m: int, f: tuple, pairs: tuple) -> np.ndarray:
    """L[x, y] of the module docstring at each pair (x, y) of 0-based index
    m-tuples in ``pairs``, on a grid that passed ``label_graph`` with
    permutation f: the orbits of all the labels with sum 0, then
    A_o(x) for each distinct x - x_1 among the tuples; read-only."""
    orbit = orbits(label_perms(n, m, f, perp=False))
    size = np.bincount(orbit)
    reps = np.flatnonzero(size)
    column = np.searchsorted(reps, orbit)           # the orbit of each label
    digits = np.indices((n,) * (m - 1)).reshape(m - 1, n ** (m - 1))   # a_2..a_m of each label
    xy = np.array(pairs, dtype=np.intp).reshape(-1, m)
    moved, where = np.unique((xy[:, 1:] - xy[:, :1]) % n, axis=0, return_inverse=True)
    A = np.empty((len(moved), reps.size), dtype=complex)
    for k, x in enumerate(moved):                   # a.x = a_2 (x_2 - x_1) + ...
        phase = root_table(n)[1][x @ digits % n]
        A[k] = np.bincount(column, phase.real, reps.size) + \
            1j * np.bincount(column, phase.imag, reps.size)
    x, y = where.reshape(-1, 2).T
    L = ((A / size[reps]) @ A.conj().T)[x, y] / n ** m
    L.flags.writeable = False
    return L


@functools.cache
def orbit_plan(n: int, m: int, f: tuple) -> OrbitPlan:
    """Labels, orbits, fixed dimension and gap of degree m on a grid that
    passed ``label_graph`` with permutation f.  They depend on (n, m, f)
    alone, so each is built once per process, from the plan of degree
    m - 1; the arrays are read-only."""
    prev = orbit_plan(n, m - 1, f) if m > 1 else None
    P = label_perms(n, m, f, perp=True)
    orbit = orbits(P)
    orbit.flags.writeable = False
    count = int(np.count_nonzero(orbit == np.arange(orbit.size)))
    counts = (prev.counts if prev else (1,)) + (count,)    # f_0 = 1: the all-zero label
    top = max(prev.top if prev else 0.0, second_eigenvalue(P, orbit))
    return OrbitPlan(orbit.size, orbit, counts,
                      sum(math.comb(m, k) * c for k, c in enumerate(counts)), top)
