"""Derivation of the degree-4 Haar table from the completion identities.

The reference the tests hold ``haar_exact.degree4_affine`` and
``haar_exact.exotic_bounds`` against.  Six row/column completion identities
h(w * sum_k u_(row,k)) = h(w), resp. sum_k u_(k,col), are assembled with
every expansion term classified by ``haar_exact.canonicalize``, row-reduced
over exact rationals with a4 as the free parameter, and a4 is pinned by the
fourth moment h(fix^4) = C4 = 14 of the main character.
"""

from dataclasses import dataclass
from fractions import Fraction

from qperm import haar_exact as hx
from qperm.errors import DimensionTooSmall
from qperm.flat_model import Monomial

# Completion identities h(w * sum_k u_(row,k)) = h(w), resp. sum_k u_(k,col):
# each expands into class multiples because the appended factor either reuses
# a symbol of w or introduces a fresh one.
_EXPANSIONS = (
    (((1, 1), (2, 2), (1, 1)), "row", 2),
    (((1, 1), (2, 2), (1, 1)), "row", 3),
    (((1, 1), (2, 2), (1, 3)), "row", 2),
    (((1, 1), (2, 2), (1, 3)), "col", 2),
    (((1, 1), (2, 2), (1, 3)), "row", 3),
    (((1, 1), (2, 2), (3, 3)), "row", 4),
)

_A_TAGS = hx.DEGREE_CLASS_TAGS[4]


def _degree_le3_value(word: Monomial, n: int) -> Fraction:
    tag = hx.canonicalize(word, n)
    if tag in _A_TAGS:
        raise ValueError("expected a word of reduced degree <= 3")
    return hx.class_value(tag, n)


def assemble_expansion_equations(n: int) -> list[tuple[dict[str, Fraction], Fraction]]:
    """The six completion identities as equations sum_tag coeff*alpha_tag = rhs.

    Every expansion term is classified by ``canonicalize``; terms of reduced
    degree <= 3 move into the right-hand side with their exact values."""
    equations = []
    for base, mode, fixed in _EXPANSIONS:
        symbols = {j for _, j in base} if mode == "row" else {i for i, _ in base}
        fresh = min(set(range(1, len(symbols) + 2)) - symbols)
        coeffs: dict[str, Fraction] = {}
        rhs = _degree_le3_value(base, n)
        for k, mult in [(s, 1) for s in sorted(symbols)] + [(fresh, n - len(symbols))]:
            if mult == 0:
                continue
            pair = (fixed, k) if mode == "row" else (k, fixed)
            tag = hx.canonicalize(base + (pair,), n)
            if tag == hx.ZERO:
                continue
            if tag in _A_TAGS:
                coeffs[tag] = coeffs.get(tag, Fraction(0)) + mult
            else:
                rhs -= mult * hx.class_value(tag, n)
        equations.append((coeffs, rhs))
    return equations


@dataclass(frozen=True)
class Degree4Solution:
    """Affine solution alpha_tag = const + slope * alpha4, plus the pinned
    alpha4 and the resulting exact value table."""

    n: int
    affine: dict[str, tuple[Fraction, Fraction]]   # tag -> (const, slope)
    alpha4: Fraction
    table: dict[str, Fraction]                     # all seven tags

    def evaluate(self, alpha4: Fraction) -> dict[str, Fraction]:
        out = {tag: c + s * alpha4 for tag, (c, s) in self.affine.items()}
        out["a4"] = alpha4
        return out


def _row_reduce_affine(equations, n: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Gaussian elimination over Fraction, a4 as the free parameter.

    Unknown order (a1, a2, a3, a5, a6, a7); each augmented row carries two
    right-hand sides: the constant part and the coefficient of -a4.
    """
    unknowns = ("a1", "a2", "a3", "a5", "a6", "a7")
    rows = []
    for coeffs, rhs in equations:
        row = [Fraction(coeffs.get(t, 0)) for t in unknowns]
        row.append(rhs)                                  # constant rhs
        row.append(-Fraction(coeffs.get("a4", 0)))       # coefficient of a4
        rows.append(row)
    ncols = len(unknowns)
    pivot_rows = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivot_rows.append(c)
        r += 1
    if r != ncols:
        raise ValueError(f"completion system has rank {r}, expected {ncols} at n={n}")
    affine = {}
    for idx, c in enumerate(pivot_rows):
        affine[unknowns[c]] = (rows[idx][ncols], rows[idx][ncols + 1])
    affine["a4"] = (Fraction(0), Fraction(1))
    return affine


def solve_degree4_system(n: int) -> Degree4Solution:
    """Assemble the six completion identities, row-reduce them exactly with
    a4 as the parameter, and pin a4 by h(fix^4) = C4.

    n = 4 is allowed: the system has full rank there too, although the
    exotic bounds need n >= 5.
    """
    if n < 4:
        raise DimensionTooSmall("the degree-4 system needs n >= 4")
    affine = _row_reduce_affine(assemble_expansion_equations(n), n)
    # h(fix^4) as an affine function const + slope * a4
    const = hx._diagonal_sum(n, 4, lambda tag: affine[tag][0] if tag in _A_TAGS
                             else hx.class_value(tag, n))
    slope = hx._diagonal_sum(n, 4, lambda tag: affine[tag][1] if tag in _A_TAGS else 0)
    if slope == 0:
        raise ValueError("moment identity does not determine a4")
    alpha4 = (Fraction(hx.catalan(4)) - const) / slope
    table = {tag: c + s * alpha4 for tag, (c, s) in affine.items()}
    return Degree4Solution(n=n, affine=affine, alpha4=alpha4, table=table)
