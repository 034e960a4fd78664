"""Magic bases: square grids of unit vectors whose rows and columns are
orthonormal bases of C^n.

Two constructions are provided.  ``build_pauli_basis_4`` returns the explicit
4x4 grid with rational coordinates (thirds) coming from a fixed fiber of the
Pauli representation.  ``build_fourier_basis`` returns, for every n >= 5, the
grid whose coordinates are n-th roots of unity:

    <e_p, xi_ij> = w^(1-j)/sqrt(n)   if p = 1,
                   w^(i-1)/sqrt(n)   if p = n,
                   w^(p(i-j))/sqrt(n) otherwise,       w = exp(2*pi*i/n).

For such a grid the pairwise inner products have the closed form

    <xi_ij, xi_kl> = (1/n)(w^(j-l) - 1)(1 - w^(k-i)) + [ (k-i)+(j-l) = 0 mod n ]

which is 1 on the diagonal, 0 whenever exactly one of the row/column indices
agree, and otherwise lands in one of two regimes: a real value in
[1 - 4/n, 1) when (k-i)+(j-l) = 0 mod n ("resonant"), or a complex value of
magnitude in (0, 4/n] ("generic").  A grid is *suitably noncommutative* when
every such off-orbit inner product has magnitude strictly between 0 and 1.

Indices are 1-based in every public signature, matching the usual notation
u_ij; arrays are stored 0-based internally.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionTooSmall, IndexOutOfRange, NotMagic

TOL_CONSTRUCT = 1e-12   # orthonormality residual allowance
TOL_STRICT = 1e-9       # decision threshold for "strictly inside (0, 1)"
# violations a report lists at most; at least 1, as the verdicts read "no
# violation listed"
MAX_VIOLATIONS = 32
# Gram-table entries the noncommutativity check screens at once: at n = 20 a
# block's temporaries take no more memory than verify_magic's
CHECK_BLOCK = 2 ** 15

IndexPair = tuple[int, int]

# Numerators (over the common denominator 3) of the 4x4 grid, row i, column j,
# coordinate p.  Row 1 is (3e1, e2-2e3-2e4, e4-2e2-2e3, e3-2e2-2e4)/3, etc.
_PAULI_THIRDS = (
    ((3, 0, 0, 0), (0, 1, -2, -2), (0, -2, -2, 1), (0, -2, 1, -2)),
    ((0, 3, 0, 0), (1, 0, -2, 2), (-2, 0, 1, 2), (2, 0, 2, 1)),
    ((0, 0, 3, 0), (-2, 2, 0, 1), (2, 1, 0, 2), (1, 2, 0, -2)),
    ((0, 0, 0, 3), (2, 2, 1, 0), (1, -2, 2, 0), (-2, 1, 2, 0)),
)


@dataclass(frozen=True)
class MagicBasis:
    """An n x n grid of vectors in C^n, ``xi[i-1, j-1]`` being the (i, j) entry.

    ``exact_thirds`` carries integer numerators over denominator 3 when the
    grid has exact rational coordinates (the 4x4 construction).
    ``gram_table`` reads them in place of ``xi``, and ``exact_vector`` gives
    them as ``Fraction`` values.  It is None for the root-of-unity grids and
    for grids read from a file.
    """

    n: int
    xi: np.ndarray                      # shape (n, n, n), complex
    kind: str = "custom"                # "pauli4" | "fourier" | "custom"
    exact_thirds: tuple | None = None

    def vector(self, i: int, j: int) -> np.ndarray:
        _check_index(self.n, (i, j))
        return self.xi[i - 1, j - 1]

    def exact_vector(self, i: int, j: int) -> tuple[Fraction, ...] | None:
        if self.exact_thirds is None:
            return None
        _check_index(self.n, (i, j))
        return tuple(Fraction(v, 3) for v in self.exact_thirds[i - 1][j - 1])


@dataclass
class GramReport:
    """Outcome of the orthonormality / noncommutativity checks.

    ``violations`` holds the first ``MAX_VIOLATIONS`` tuples
    ``(a, b, value, reason)``, with 1-based index pairs a, b.  ``gram`` is
    the ``gram_table`` the checks ran on, kept so that callers reuse it
    instead of building it again.
    """

    n: int
    magic_ok: bool = False
    suitably_noncommutative_ok: bool | None = None
    violations: list = field(default_factory=list)
    max_residual: float = 0.0
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)


def _check_index(n: int, a: IndexPair) -> None:
    i, j = a
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"index pair {a} outside 1..{n}")


def build_pauli_basis_4() -> MagicBasis:
    """The explicit 4x4 magic basis with coordinates in {0, +-1/3, +-2/3, 1}."""
    xi = np.array(_PAULI_THIRDS, dtype=float) / 3.0
    return MagicBasis(n=4, xi=xi.astype(complex), kind="pauli4",
                      exact_thirds=_PAULI_THIRDS)


def build_fourier_basis(n: int) -> MagicBasis:
    """The root-of-unity magic basis in dimension n >= 5.

    Each coordinate is computed from its exact reduced angle 2*pi*(k mod n)/n
    rather than by repeated multiplication, so phase drift stays at one ulp.
    The grid has only n distinct coordinates: they are computed once, as a
    table of roots, and the grid indexes it with the exponent k of each cell.
    """
    if n < 5:
        raise DimensionTooSmall(
            f"the root-of-unity grid needs n >= 5 (resonant inner products "
            f"vanish at n = 4), got n = {n}")
    root = 1.0 / math.sqrt(n)
    roots = np.array([root * cmath.exp(2j * math.pi * k / n) for k in range(n)])
    i, j, p = np.ogrid[1:n + 1, 1:n + 1, 1:n + 1]
    k = np.where(p == 1, 1 - j, np.where(p == n, i - 1, p * (i - j))) % n
    return MagicBasis(n=n, xi=roots[k], kind="fourier")


def gram(basis: MagicBasis, a: IndexPair, b: IndexPair) -> complex:
    """<xi_a, xi_b>, conjugate-linear in the first argument."""
    _check_index(basis.n, a)
    _check_index(basis.n, b)
    return complex(np.vdot(basis.vector(*a), basis.vector(*b)))


def gram_table(basis: MagicBasis) -> np.ndarray:
    """All inner products at once, shape (n, n, n, n): G[i-1,j-1,k-1,l-1].

    The table is one matrix product X* X^T of the n^2 x n grid matrix X.  A
    grid with ``exact_thirds`` takes the product of its integer thirds
    instead, divided once by 9, so each entry is its exact value rounded
    once.  Entries too large for a float come out inf or NaN without a
    warning, and the checks flag them.
    """
    n = basis.n
    if basis.exact_thirds is not None:
        t = np.array(basis.exact_thirds, dtype=np.int64).reshape(n * n, n)
        return (t @ t.T / 9).astype(complex).reshape(n, n, n, n)
    x = basis.xi.reshape(n * n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return (x.conj() @ x.T).reshape(n, n, n, n)


def fourier_case(a: IndexPair, b: IndexPair, n: int) -> str:
    """Regime of the pair: diagonal, same row/column, resonant or generic."""
    (i, j), (k, l) = a, b
    if i == k and j == l:
        return "diagonal"
    if i == k:
        return "same-row"
    if j == l:
        return "same-column"
    return "resonant" if ((k - i) + (j - l)) % n == 0 else "generic"


def verify_magic(basis: MagicBasis) -> GramReport:
    """Check that every row and column of the grid is an orthonormal basis.

    ``max_residual`` is the largest distance of a row or column Gram entry
    from the identity; violations list the entries off by more than
    ``TOL_CONSTRUCT``, rows before columns, each in (s, u, v) order for the
    pair ((s, u), (s, v)) of row s or ((u, s), (v, s)) of column s.  A NaN
    entry is a violation and makes ``max_residual`` NaN.
    """
    n = basis.n
    G = gram_table(basis)
    report = GramReport(n=n, gram=G)
    worst = 0.0
    blocks = (("row", np.einsum("iuiv->iuv", G)), ("column", np.einsum("usvs->suv", G)))
    for axis, block in blocks:
        resid = np.abs(block - np.eye(n))
        worst = float(np.maximum(worst, resid.max(initial=0.0)))   # NaN propagates
        room = MAX_VIOLATIONS - len(report.violations)
        for s, u, v in (np.argwhere(~(resid <= TOL_CONSTRUCT))[:room] + 1).tolist():
            a, b = ((s, u), (s, v)) if axis == "row" else ((u, s), (v, s))
            report.violations.append((a, b, complex(block[s - 1, u - 1, v - 1]),
                                      f"{axis} gram"))
    report.max_residual = worst
    report.magic_ok = not report.violations
    return report


def verify_suitably_noncommutative(basis: MagicBasis) -> GramReport:
    """Check 0 < |<xi_ij, xi_kl>| < 1 for all i != k, j != l.

    For the root-of-unity grids the two off-orbit regimes are additionally
    pinned to their windows: resonant values must be real in [1 - 4/n, 1) and
    generic magnitudes must fall in (0, 4/n], each within ``TOL_CONSTRUCT``.
    Each pair gets at most one violation, the magnitude check first, listed
    in (i, j, k, l) order; a NaN entry fails every check.

    The whole test is one predicate over the Gram table, evaluated on blocks
    of whole row indices i, ``CHECK_BLOCK`` table entries at a time; reasons
    are worked out only for the first entries it flags, as many as the list
    still has room for, and once it is full no further block is screened.
    """
    report = verify_magic(basis)
    if not report.magic_ok:
        report.suitably_noncommutative_ok = False
        return report
    n = basis.n
    G = report.gram
    fourier = basis.kind == "fourier"
    reasons = ("magnitude not strictly inside (0,1)",
               "resonant value outside [1-4/n, 1)",
               "generic magnitude outside (0, 4/n]")
    rows = min(n, max(1, CHECK_BLOCK // n ** 3))
    mag = np.empty((rows, n, n, n))
    idx = np.arange(n)
    j_axis, k_axis = idx[:, None], idx
    for i0 in range(0, n, rows):
        g = G[i0:i0 + rows]
        b = len(g)
        m = np.abs(g, out=mag[:b])
        ok = (TOL_STRICT < m) & (m < 1.0 - TOL_STRICT)
        if fourier:
            ok &= (0.0 < m) & (m <= 4.0 / n + TOL_CONSTRUCT)          # generic window
            # flat index in the block of the resonant entry l = k - i + j mod n
            r = np.arange(b)[:, None, None]
            at = ((r * n + j_axis) * n + k_axis) * n + (k_axis - (r + i0) + j_axis) % n
            z, zm = g.reshape(-1)[at], m.reshape(-1)[at]
            ok.reshape(-1)[at] = ((TOL_STRICT < zm) & (zm < 1.0 - TOL_STRICT)
                                  & ~(np.abs(z.imag) > TOL_CONSTRUCT)
                                  & (1.0 - 4.0 / n - TOL_CONSTRUCT <= z.real)
                                  & (z.real < 1.0))
        ok[np.arange(b), :, np.arange(i0, i0 + b), :] = True          # k = i
        ok[:, idx, :, idx] = True                                     # l = j
        if ok.all():
            continue
        room = MAX_VIOLATIONS - len(report.violations)
        flagged = tuple(axis[:room] for axis in np.nonzero(~ok))      # C order
        r, j, k, l = flagged
        fm = m[flagged]
        code = np.where((TOL_STRICT < fm) & (fm < 1.0 - TOL_STRICT),
                        np.where((k - (r + i0) + j - l) % n == 0, 1, 2), 0)
        quads = (np.column_stack(flagged) + (i0 + 1, 1, 1, 1)).tolist()
        for (i, j, k, l), value, c in zip(quads, g[flagged].tolist(), code.tolist()):
            report.violations.append(((i, j), (k, l), value, reasons[c]))
        if len(report.violations) >= MAX_VIOLATIONS:
            break
    report.suitably_noncommutative_ok = not report.violations
    return report


# --- JSON file format -------------------------------------------------------
#
# { "n": int, "kind": str, "xi": [[[ [re, im], ... n coords ] ... n cols ] ... n rows ] }
# row-major with 1-based semantics: xi[i-1][j-1][p-1] = <e_p, xi_ij>.
# Floats are emitted with repr, i.e. 17 significant digits, and the whole
# file is what ``json.dumps`` gives for this object with nested lists.

def basis_from_dict(data: dict) -> MagicBasis:
    """Parse the JSON layout above; raise ValueError for any other layout."""
    if not isinstance(data, dict) or "n" not in data or "xi" not in data:
        raise ValueError("expected a JSON object with keys 'n' and 'xi'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    try:
        pairs = np.array(data["xi"])
    except ValueError:                     # ragged nesting
        pairs = None
    if pairs is None or pairs.shape != (n, n, n, 2) or pairs.dtype.kind not in "iuf":
        raise ValueError(f"xi must hold {n} x {n} x {n} numeric [re, im] pairs")
    if not np.isfinite(pairs).all():
        raise ValueError("xi coordinates must be finite numbers")
    xi = np.empty((n, n, n), dtype=complex)
    xi.real, xi.imag = pairs[..., 0], pairs[..., 1]
    return MagicBasis(n=n, xi=xi, kind=str(data.get("kind", "custom")))


def write_basis(basis: MagicBasis, path: str) -> None:
    """Write the JSON layout above, formatting each distinct [re, im] pair once.

    Pairs are told apart by bit pattern, not by value, so 0.0 and -0.0 keep
    their own text; non-finite values come out as ``json.dumps`` writes
    them, NaN and Infinity.
    """
    n = basis.n
    xi = np.ascontiguousarray(basis.xi, dtype=complex).ravel()
    re, im = xi.view(np.uint64).reshape(-1, 2).T
    order = np.lexsort((im, re))
    re, im = re[order], im[order]
    start = np.ones(xi.size, dtype=bool)            # first cell of each run of equal bits
    start[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    inverse = np.empty(xi.size, dtype=np.intp)
    inverse[order] = np.cumsum(start) - 1
    distinct = [json.dumps([z.real, z.imag]) for z in xi[order[start]].tolist()]
    cells = [distinct[t] for t in inverse.tolist()]
    columns = ["[" + ", ".join(cells[c:c + n]) + "]" for c in range(0, n ** 3, n)]
    rows = ["[" + ", ".join(columns[r:r + n]) + "]" for r in range(0, n ** 2, n)]
    header = json.dumps({"n": n, "kind": basis.kind})[:-1]
    text = header + ', "xi": [' + ", ".join(rows) + "]}"
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_basis(path: str) -> MagicBasis:
    with open(path) as fh:
        return basis_from_dict(json.load(fh))


def require_magic(basis: MagicBasis) -> GramReport:
    """verify_magic, raising NotMagic instead of returning a failed report."""
    report = verify_magic(basis)
    if not report.magic_ok:
        first = report.violations[0]
        raise NotMagic(f"grid is not magic: first violation {first[0]} vs {first[1]}")
    return report
