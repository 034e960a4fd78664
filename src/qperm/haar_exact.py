"""Exact Haar-state calculus on low-degree generator words of the quantum
permutation group.

The Haar state h is tracial, invariant under the antipode
(h(u_(i1,j1)...u_(im,jm)) = h(u_(jm,im)...u_(j1,i1))) and invariant under
independent relabelings of rows and columns.  Consequently the value of h on
a reduced word of degree <= 4 depends only on the orbit of the word under
cyclic rotation, antipode flip and relabeling.  Up to degree 4 the orbits of
nonvanishing words are represented by

    d1 = u11,  d2 = u11 u22,  d3 = u11 u22 u33,
    a1 = u11 u22 u11 u22,   a2 = u11 u22 u11 u23,  a3 = u11 u22 u11 u33,
    a4 = u11 u22 u13 u24,   a5 = u11 u22 u13 u32,  a6 = u11 u22 u13 u34,
    a7 = u11 u22 u33 u44,

and every other reduced word of degree <= 4 has h = 0 because some cyclic
rotation meets the row/column orthogonality of a magic unitary.

Degree d <= 3 values are the S_n values (n-d)!/n!:
h(d1) = 1/n, h(d2) = 1/(n(n-1)), h(d3) = 1/(n(n-1)(n-2)).  The degree-4
values satisfy six independent row/column completion identities in seven
unknowns, with a4 free, and S_n satisfies them at a4 = 0.  So each degree-4
value is S_n value + slope * a4 (``degree4_affine``):

    a1 = 1/(n(n-1)) + (n-2)(n-3) a4       a5 = (n-3)/(n-2) a4
    a2 = -(n-3) a4                       a6 = -a4/(n-2)
    a3 = 1/(n(n-1)(n-2)) + (n-3)/(n-2) a4  a7 = (n-4)!/n! + a4/((n-2)(n-3))

For S_n^+ the fourth moment of the main character fix = sum_i u_ii is the
Catalan number C4 = 14, which pins a4 = -1/r(n) with r(n) = n(n-1)(n^2-3n+1):

    a1 = (2n-5)/r(n)            a5 = -(n-3)/((n-2) r(n))
    a2 = (n-3)/r(n)             a6 = 1/((n-2) r(n))
    a3 = (n-2)/r(n)             a7 = n/((n-2) r(n))
    a4 = -1/r(n)

The derivation itself (assembling the completion identities with this
module's canonicalizer, row-reducing them and pinning a4 by the moment) is
the test oracle in ``tests/degree4_oracle.py``.  All arithmetic is exact
(``fractions.Fraction``); floats never enter this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from . import magic_bases
from .errors import (DegreeTooHigh, DimensionTooSmall, EmptyMonomial,
                     IndexOutOfRange, NotClassifiable)
from .flat_model import (Monomial, classical_haar, pairs_clash, reduce_monomial,
                         validate_monomial)

ZERO = "zero"
DEGREE_CLASS_TAGS = {1: ("d1",), 2: ("d2",), 3: ("d3",),
                     4: ("a1", "a2", "a3", "a4", "a5", "a6", "a7")}
_A_TAGS = DEGREE_CLASS_TAGS[4]

REPRESENTATIVES: dict[str, Monomial] = {
    "d1": ((1, 1),),
    "d2": ((1, 1), (2, 2)),
    "d3": ((1, 1), (2, 2), (3, 3)),
    "a1": ((1, 1), (2, 2), (1, 1), (2, 2)),
    "a2": ((1, 1), (2, 2), (1, 1), (2, 3)),
    "a3": ((1, 1), (2, 2), (1, 1), (3, 3)),
    "a4": ((1, 1), (2, 2), (1, 3), (2, 4)),
    "a5": ((1, 1), (2, 2), (1, 3), (3, 2)),
    "a6": ((1, 1), (2, 2), (1, 3), (3, 4)),
    "a7": ((1, 1), (2, 2), (3, 3), (4, 4)),
}


class BoundaryDimensionWarning(UserWarning):
    """Degree-4 evaluation at n = 4: outside the n >= 5 range of the bounds."""


# --- orbit machinery ---------------------------------------------------------

def dense_relabel(word: Monomial) -> Monomial:
    """Relabel rows and columns independently in order of first occurrence.

    This is the lexicographically smallest relabeling, so minimizing the
    result over rotations and the antipode flip gives a canonical orbit form.
    """
    rmap: dict[int, int] = {}
    cmap: dict[int, int] = {}
    out = []
    for i, j in word:
        out.append((rmap.setdefault(i, len(rmap) + 1),
                    cmap.setdefault(j, len(cmap) + 1)))
    return tuple(out)


def antipode(word: Monomial) -> Monomial:
    """Reverse the word and swap row with column in every factor."""
    return tuple((j, i) for i, j in reversed(word))


def rotations(word: Monomial):
    for r in range(len(word)):
        yield word[r:] + word[:r]


def cyclic_reduce(word: Monomial) -> Monomial | None:
    """Reduce a word as a cyclic word (traciality): collapse adjacent equal
    factors including across the wrap, and return None when any adjacency
    shares exactly one of row/column."""
    w = reduce_monomial(word)
    while True:
        if w is None:
            return None
        if len(w) <= 1:
            return w
        if w[0] == w[-1]:
            w = reduce_monomial(w[:-1])
            continue
        if pairs_clash(w[0], w[-1]):
            return None
        return w


def canonical_form(word: Monomial) -> Monomial:
    """Minimum of dense relabelings over all rotations and the antipode flip.

    The input must be cyclically reduced; the output identifies the orbit of
    the word under every Haar-state invariance."""
    candidates = []
    for flipped in (word, antipode(word)):
        for rot in rotations(flipped):
            candidates.append(dense_relabel(rot))
    return min(candidates)


_CANON_TO_TAG = {canonical_form(rep): tag for tag, rep in REPRESENTATIVES.items()}
assert len(_CANON_TO_TAG) == len(REPRESENTATIVES), "class orbits must be disjoint"


def canonicalize(mono: Monomial, n: int) -> str:
    """Class tag of a generator word under all Haar-state invariances.

    Returns ZERO when the word vanishes as a cyclic word (two
    factors sharing exactly one of row/column become adjacent under some
    rotation), otherwise the unique tag whose representative shares the
    word's orbit.  Words whose reduced degree exceeds 4 raise DegreeTooHigh.
    """
    if not mono:
        raise EmptyMonomial("the identity word has no class tag")
    validate_monomial(mono, n)
    w = cyclic_reduce(mono)
    if w is None:
        return ZERO
    if len(w) > 4:
        raise DegreeTooHigh(f"reduced degree {len(w)} > 4")
    tag = _CANON_TO_TAG.get(canonical_form(w))
    if tag is None:
        raise NotClassifiable(f"word {w} matched no class orbit")
    return tag


# --- exact values ------------------------------------------------------------

def degree4_denominator(n: int) -> int:
    """r(n) = n(n-1)(n^2 - 3n + 1), the common denominator of degree-4 values."""
    return n * (n - 1) * (n * n - 3 * n + 1)


def degree4_affine(n: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Each degree-4 class as an affine function of a4: tag -> (const, slope)
    with h(tag) = const + slope * a4, for n >= 4.

    The constant is the S_n value of the class representative, since S_n
    solves the completion identities at a4 = 0; S_n^+ has a4 = -1/r(n).
    Raises IndexOutOfRange for n < 4."""
    return {tag: _affine_row(tag, n) for tag in _A_TAGS}


def _affine_row(tag: str, n: int) -> tuple[Fraction, Fraction]:
    """One row of ``degree4_affine``; ``class_value`` needs only its own,
    and building all seven would cost it several times as much per call."""
    if n < 4:
        raise IndexOutOfRange(f"degree-4 classes are tabulated for n >= 4, not {n}")
    num, den = {
        "a1": ((n - 2) * (n - 3), 1),
        "a2": (-(n - 3), 1),
        "a3": (n - 3, n - 2),
        "a4": (1, 1),
        "a5": (n - 3, n - 2),
        "a6": (-1, n - 2),
        "a7": (1, (n - 2) * (n - 3)),
    }[tag]
    return classical_haar(n, REPRESENTATIVES[tag]), Fraction(num, den)


def class_value(tag: str, n: int) -> Fraction:
    """Exact Haar value of a class representative at dimension n: the S_n
    value for d1..d3, and S_n value + slope * a4 with a4 = -1/r(n) for
    a1..a7.  Raises IndexOutOfRange when the representative needs more than
    n labels, and for a1..a7 at n < 4."""
    if tag == ZERO:
        return Fraction(0)
    if tag not in _A_TAGS:
        return classical_haar(n, REPRESENTATIVES[tag])
    const, slope = _affine_row(tag, n)
    return const + slope * Fraction(-1, degree4_denominator(n))


def haar_value_snplus(mono: Monomial, n: int) -> Fraction:
    """Exact Haar value of a generator word of reduced degree <= 4.

    n = 4 is allowed but sits on the boundary of the degree-4 analysis
    (the exotic bounds require n >= 5), so it emits a warning.  For n <= 3,
    S_n^+ = S_n, and the value is the classical one.
    """
    if not mono:
        return Fraction(1)
    tag = canonicalize(mono, n)                # reduced degree > 4 raises
    if n < 4:
        return classical_haar(n, mono)
    if n == 4:
        warnings.warn(
            "n = 4 degree-4 evaluation: outside the n >= 5 bounds range; "
            "see n4_boundary_report()", BoundaryDimensionWarning, stacklevel=2)
    return class_value(tag, n)


@functools.cache
def catalan(k: int) -> int:
    """C_k by the convolution recurrence C_(k+1) = sum_i C_i C_(k-i)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cs = [1]
    for m in range(k):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[k]


# --- dense-pattern sums ------------------------------------------------------

def _dense_patterns(k: int, distinct_only_pairs: bool):
    """Dense tuples (first occurrences 1, 2, ...) of length k; optionally
    restricted to t1 != t2 and t3 != t4 (the double-sum constraint)."""
    out = []
    for tup in itertools.product(range(1, k + 1), repeat=k):
        seen: dict[int, int] = {}
        dense = tuple(seen.setdefault(v, len(seen) + 1) for v in tup)
        if dense != tup:
            continue
        if distinct_only_pairs and (tup[0] == tup[1] or tup[2] == tup[3]):
            continue
        out.append(tup)
    return out


@functools.cache
def _diagonal_classes(k: int, distinct_only_pairs: bool) -> tuple[tuple[str, int], ...]:
    """(class tag, number of distinct symbols) of each dense diagonal pattern
    u_(t1,t1)...u_(tk,tk) of length k outside the ZERO class.  The list does
    not depend on n, so it is built once per (k, distinct_only_pairs)."""
    out = []
    for pattern in _dense_patterns(k, distinct_only_pairs):
        tag = canonicalize(tuple((t, t) for t in pattern), 4)
        if tag != ZERO:
            out.append((tag, len(set(pattern))))
    return tuple(out)


def _diagonal_sum(n: int, k: int, value, distinct_only_pairs: bool = False) -> Fraction:
    """Sum of value(tag) over the n^k diagonal words u_(t1,t1)...u_(tk,tk),
    tag being the word's class; words in the ZERO class contribute nothing.
    The sum runs over dense patterns: a pattern with d distinct symbols
    stands for n(n-1)...(n-d+1) index tuples, and value is called once per
    class.  ``distinct_only_pairs`` keeps only t1 != t2 and t3 != t4.
    Needs 1 <= k <= 4."""
    counts: dict[str, int] = {}
    for tag, distinct in _diagonal_classes(k, distinct_only_pairs):
        counts[tag] = counts.get(tag, 0) + math.perm(n, distinct)
    return sum((count * value(tag) for tag, count in counts.items()), Fraction(0))


# --- bounds ------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsTable:
    """Open intervals (lower, upper) for the seven degree-4 classes, in a
    read-only mapping, as ``exotic_bounds`` hands out one table per n."""

    n: int
    intervals: Mapping[str, tuple[Fraction, Fraction]]


@functools.lru_cache(maxsize=64)
def exotic_bounds(n: int) -> BoundsTable:
    """Bounds valid for any quantum permutation group with free three-orbitals.

    Positivity of a1 = h(|u22 u11 u22|^2) and a2 = h(|u22 u11 u23|^2) confines
    the parameter to a4 in (-(n-4)!/n!, 0); pushing the window through the
    affine table ``degree4_affine`` bounds every class.  Requires n >= 5 (the
    window collapses against the n = 4 boundary).  The table depends on n
    alone, so it is built once per n and process; a caller that sweeps n
    keeps the last 64.
    """
    if n < 5:
        raise DimensionTooSmall("exotic bounds need n >= 5")
    window = (Fraction(-1, n * (n - 1) * (n - 2) * (n - 3)), Fraction(0))
    intervals = {}
    for tag, (c, s) in degree4_affine(n).items():
        lo, hi = sorted((c + s * window[0], c + s * window[1]))
        intervals[tag] = (lo, hi)
    return BoundsTable(n=n, intervals=types.MappingProxyType(intervals))


def fix4_exotic_bound(n: int) -> Fraction:
    """Best upper bound on h(fix^4) from the degree-4 bounds alone.

    Degree <= 3 classes enter with exact values, degree-4 classes with the
    upper endpoints of their intervals; the result is a strict bound.
    """
    bounds = exotic_bounds(n)
    return _diagonal_sum(n, 4, lambda tag: bounds.intervals[tag][1] if tag in _A_TAGS
                         else class_value(tag, n))


# --- moments -----------------------------------------------------------------

def fix_moment(n: int, k: int) -> Fraction:
    """h(fix^k) = sum over the n^k diagonal index tuples of
    h(u_(t1,t1)...u_(tk,tk)), summed by dense pattern in O(1) in n."""
    if k > 4:
        raise DegreeTooHigh("moments available for k <= 4")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    if n == 4:
        warnings.warn("fix moments at the n = 4 boundary",
                      BoundaryDimensionWarning, stacklevel=2)
    elif n < 4:
        raise DimensionTooSmall("fix moments need n >= 4")
    return _diagonal_sum(n, k, lambda tag: class_value(tag, n))


def double_sum_identity(n: int) -> Fraction:
    """sum_(i != j) sum_(k != l) h(u_ii u_jj u_kk u_ll), exactly."""
    return _diagonal_sum(n, 4, lambda tag: class_value(tag, n),
                         distinct_only_pairs=True)


# --- n = 4 boundary diagnostic -------------------------------------------------

@dataclass(frozen=True)
class BoundaryReport:
    """Side-by-side degree-4 data at n = 4.

    ``formula_value`` is h(u11 u22 u11 u22) from the degree-4 table;
    ``model_trace`` is tr(v11 v22 v11 v22) in the explicit 4x4 rank-one model,
    computed in exact rational arithmetic.  ``consistent`` records whether
    both are strictly positive, as the model forces for a faithful-on-trace
    state family."""

    formula_value: Fraction
    model_trace: Fraction
    consistent: bool


def n4_boundary_report() -> BoundaryReport:
    basis = magic_bases.build_pauli_basis_4()

    def exact_gram(a, b):
        va = basis.exact_vector(*a)
        vb = basis.exact_vector(*b)
        return sum(x * y for x, y in zip(va, vb))

    word = REPRESENTATIVES["a1"]
    coeff = Fraction(1)
    for a, b in zip(word, word[1:]):
        coeff *= exact_gram(a, b)
    trace = coeff * exact_gram(word[-1], word[0])
    formula = class_value("a1", 4)
    return BoundaryReport(formula_value=formula, model_trace=trace,
                          consistent=formula > 0 and trace > 0)


# --- serialization -----------------------------------------------------------

_FORMULA_STRINGS = {
    "a1": "(2n-5)/r(n)",
    "a2": "(n-3)/r(n)",
    "a3": "(n-2)/r(n)",
    "a4": "-1/r(n)",
    "a5": "-(n-3)/((n-2) r(n))",
    "a6": "1/((n-2) r(n))",
    "a7": "n/((n-2) r(n))",
}


def haar_table_dict(n: int) -> dict:
    """CLI-facing dump: class -> formula string, exact value, open bounds."""
    bounds = exotic_bounds(n) if n >= 5 else None
    out = {"n": n, "denominator_r": degree4_denominator(n), "classes": {}}
    for tag in _A_TAGS:
        val = class_value(tag, n)
        entry = {
            "representative": ",".join(f"{i}:{j}" for i, j in REPRESENTATIVES[tag]),
            "formula": _FORMULA_STRINGS[tag] + " with r(n) = n(n-1)(n^2-3n+1)",
            "value": [val.numerator, val.denominator],
        }
        if bounds is not None:
            lo, hi = bounds.intervals[tag]
            entry["bounds"] = [[lo.numerator, lo.denominator],
                               [hi.numerator, hi.denominator]]
        out["classes"][tag] = entry
    return out
