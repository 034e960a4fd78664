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
    grid has exact rational coordinates (the 4x4 construction), enabling
    exact Gram values in tests; it is None for the root-of-unity grids.
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

    ``violations`` holds tuples ``(a, b, value, reason)`` with 1-based index
    pairs a, b.  ``gram`` maps ((i,j),(k,l)) to <xi_ij, xi_kl>.
    """

    n: int
    gram: dict = field(repr=False)
    magic_ok: bool = False
    suitably_noncommutative_ok: bool | None = None
    violations: list = field(default_factory=list)
    max_residual: float = 0.0


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
    """
    if n < 5:
        raise DimensionTooSmall(
            f"the root-of-unity grid needs n >= 5 (resonant inner products "
            f"vanish at n = 4), got n = {n}")
    root = 1.0 / math.sqrt(n)
    xi = np.empty((n, n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for p in range(1, n + 1):
                if p == 1:
                    k = (1 - j) % n
                elif p == n:
                    k = (i - 1) % n
                else:
                    k = (p * (i - j)) % n
                xi[i - 1, j - 1, p - 1] = root * cmath.exp(2j * math.pi * k / n)
    return MagicBasis(n=n, xi=xi, kind="fourier")


def gram(basis: MagicBasis, a: IndexPair, b: IndexPair) -> complex:
    """<xi_a, xi_b>, conjugate-linear in the first argument."""
    _check_index(basis.n, a)
    _check_index(basis.n, b)
    return complex(np.vdot(basis.vector(*a), basis.vector(*b)))


def gram_table(basis: MagicBasis) -> np.ndarray:
    """All inner products at once, shape (n, n, n, n): G[i-1,j-1,k-1,l-1]."""
    return np.einsum("ijp,klp->ijkl", basis.xi.conj(), basis.xi)


def fourier_gram_closed_form(n: int, a: IndexPair, b: IndexPair) -> complex:
    """Closed form of <xi_a, xi_b> for the root-of-unity grid."""
    (i, j), (k, l) = a, b
    w = cmath.exp(2j * math.pi / n)
    val = (w ** ((j - l) % n) - 1) * (1 - w ** ((k - i) % n)) / n
    if ((k - i) + (j - l)) % n == 0:
        val += 1.0
    return val


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


def verify_magic(basis: MagicBasis, tol_construct: float = TOL_CONSTRUCT) -> GramReport:
    """Check that every row and column of the grid is an orthonormal basis.

    The report's ``gram`` dict and ``max_residual`` cover all n^4 pairs;
    violations list the row/column Gram entries off identity by more than
    ``tol_construct``.
    """
    n = basis.n
    G = gram_table(basis)
    report = GramReport(n=n, gram=_gram_dict(G))
    worst = 0.0
    for axis in ("row", "column"):
        for s in range(1, n + 1):
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    if axis == "row":
                        a, b = (s, u), (s, v)
                    else:
                        a, b = (u, s), (v, s)
                    g = G[a[0] - 1, a[1] - 1, b[0] - 1, b[1] - 1]
                    target = 1.0 if a == b else 0.0
                    resid = abs(g - target)
                    worst = max(worst, resid)
                    if resid > tol_construct:
                        report.violations.append((a, b, complex(g), f"{axis} gram"))
    report.max_residual = worst
    report.magic_ok = not report.violations
    return report


def verify_suitably_noncommutative(basis: MagicBasis,
                                   tol_strict: float = TOL_STRICT,
                                   tol_construct: float = TOL_CONSTRUCT) -> GramReport:
    """Check 0 < |<xi_ij, xi_kl>| < 1 for all i != k, j != l.

    For the root-of-unity grids the two off-orbit regimes are additionally
    pinned to their windows: resonant values must be real in [1 - 4/n, 1) and
    generic magnitudes must fall in (0, 4/n], each within ``tol_construct``.
    """
    report = verify_magic(basis, tol_construct)
    if not report.magic_ok:
        report.suitably_noncommutative_ok = False
        return report
    n = basis.n
    G = gram_table(basis)
    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    if i == k or j == l:
                        continue
                    a, b = (i, j), (k, l)
                    g = complex(G[i - 1, j - 1, k - 1, l - 1])
                    mag = abs(g)
                    if not (tol_strict < mag < 1.0 - tol_strict):
                        ok = False
                        report.violations.append((a, b, g, "magnitude not strictly inside (0,1)"))
                        continue
                    if basis.kind != "fourier":
                        continue
                    case = fourier_case(a, b, n)
                    if case == "resonant":
                        if abs(g.imag) > tol_construct or not (
                                1.0 - 4.0 / n - tol_construct <= g.real < 1.0):
                            ok = False
                            report.violations.append((a, b, g, "resonant value outside [1-4/n, 1)"))
                    elif case == "generic":
                        if not (0.0 < mag <= 4.0 / n + tol_construct):
                            ok = False
                            report.violations.append((a, b, g, "generic magnitude outside (0, 4/n]"))
    report.suitably_noncommutative_ok = ok
    return report


def _gram_dict(G: np.ndarray) -> dict:
    n = G.shape[0]
    return {((i, j), (k, l)): complex(G[i - 1, j - 1, k - 1, l - 1])
            for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1) for l in range(1, n + 1)}


# --- JSON file format -------------------------------------------------------
#
# { "n": int, "xi": [[[ [re, im], ... n coords ] ... n cols ] ... n rows ] }
# row-major with 1-based semantics: xi[i-1][j-1][p-1] = <e_p, xi_ij>.
# Floats are emitted with repr, i.e. 17 significant digits.

def basis_to_dict(basis: MagicBasis) -> dict:
    return {
        "n": basis.n,
        "kind": basis.kind,
        "xi": [[[[float(z.real), float(z.imag)] for z in basis.xi[i, j]]
                for j in range(basis.n)] for i in range(basis.n)],
    }


def basis_from_dict(data: dict) -> MagicBasis:
    """Parse the JSON layout above; raise ValueError for any other layout."""
    if not isinstance(data, dict):
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
    xi = np.empty((n, n, n), dtype=complex)
    xi.real, xi.imag = pairs[..., 0], pairs[..., 1]
    return MagicBasis(n=n, xi=xi, kind=str(data.get("kind", "custom")))


def write_basis(basis: MagicBasis, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(basis_to_dict(basis), fh)
        fh.write("\n")


def read_basis(path: str) -> MagicBasis:
    with open(path) as fh:
        return basis_from_dict(json.load(fh))


def require_magic(basis: MagicBasis, tol_construct: float = TOL_CONSTRUCT) -> GramReport:
    """verify_magic, raising NotMagic instead of returning a failed report."""
    report = verify_magic(basis, tol_construct)
    if not report.magic_ok:
        first = report.violations[0]
        raise NotMagic(f"grid is not magic: first violation {first[0]} vs {first[1]}")
    return report
