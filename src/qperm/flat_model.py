"""Flat matrix models: magic unitaries of rank-one projections.

A magic basis xi induces the model v_ij = |xi_ij><xi_ij|.  A word in the
generators collapses to a single rank-one operator,

    v_(i1,j1) ... v_(im,jm)
        = ( prod_t <xi_(it,jt), xi_(i(t+1),j(t+1))> ) |xi_(i1,j1)><xi_(im,jm)|,

so zero/nonzero questions reduce to products of Gram factors.  The module
evaluates words in this closed form, decides the free-orbital property for
all words of a given length (words vanish only when two consecutive factors
share exactly one of row/column) by a min/max-product recursion over paths
on the n^2 pairs, and checks the commutation pattern
[v_ij, v_kl] = 0 <=> i = k or j = l.  The classical model over S_n is the
contrast: there the generators are the indicator functions 1_(j -> i) on
permutations, and a word u_(i1,j1)...u_(im,jm) is nonzero exactly when
{j_t -> i_t} is a partial bijection, with Haar value (n-d)!/n! for d distinct
constraints.  Its free-orbital verdict is a theorem (free m-orbitals iff
m <= 2 or n <= 2), and a depth-first search over pairs lists the violations.

Monomials are tuples of 1-based ``(row, column)`` pairs; the text form is
comma-separated ``row:column`` items, e.g. ``"1:1,2:2,1:1,2:2"``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import label_orbits, magic_bases
from .errors import (BudgetExceeded, DimensionTooSmall, EmptyMonomial,
                     IndexOutOfRange)

TOL_ZERO = 1e-12      # |coefficient| below this counts as a vanished word
TOL_NONZERO = 1e-9    # |coefficient| above this counts as a surviving word
TOL_COMMUTE = 1e-10   # commutator norm below this counts as commuting
MAX_VIOLATIONS = 32   # violating words an orbital report lists at most
DEFAULT_BUDGET = 10 ** 9

Monomial = tuple[tuple[int, int], ...]


# --- monomial combinatorics -------------------------------------------------

def parse_monomial(text: str) -> Monomial:
    """Parse ``"1:1,2:2"`` into ((1, 1), (2, 2)); empty string is the identity."""
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for item in text.split(","):
        left, sep, right = item.partition(":")
        if not sep:
            raise ValueError(f"bad monomial item {item!r}, expected row:column")
        pairs.append((int(left), int(right)))
    return tuple(pairs)


def format_monomial(mono: Monomial) -> str:
    return ",".join(f"{i}:{j}" for i, j in mono)


def validate_monomial(mono: Monomial, n: int) -> None:
    for pair in mono:
        i, j = pair
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"pair {pair} outside 1..{n}")


def pairs_clash(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True when two pairs share exactly one of row/column: the product of
    the two generators vanishes in every magic unitary."""
    return (a[0] == b[0]) != (a[1] == b[1])


def is_trivially_zero(mono: Monomial) -> bool:
    """True when two consecutive factors share exactly one of row/column."""
    return any(pairs_clash(a, b) for a, b in zip(mono, mono[1:]))


def reduce_monomial(mono: Monomial) -> Monomial | None:
    """Collapse adjacent equal pairs (projections are idempotent) and return
    None when a collapse exposes two consecutive factors sharing exactly one
    of row/column.  Idempotent; the empty word is the identity."""
    out: list[tuple[int, int]] = []
    for pair in mono:
        if out and out[-1] == pair:
            continue
        if out and pairs_clash(out[-1], pair):
            return None
        out.append(pair)
    return tuple(out)


# --- the model ---------------------------------------------------------------

@dataclass(frozen=True)
class FlatModel:
    """Magic unitary of rank-one projections plus its precomputed Gram table.

    ``symmetry`` is read off the table on first use and kept, so the table
    must not change after the model's first probe (``cli._model`` makes it
    read-only)."""

    basis: magic_bases.MagicBasis
    n: int
    gram: np.ndarray = field(repr=False)       # (n, n, n, n) complex

    @functools.cached_property
    def symmetry(self) -> label_orbits.LabelSymmetry:
        """The label group the probe stores this model's trace states over,
        and the orbit path's label graph (``label_orbits.label_symmetry``):
        decided once per model, not once per probe."""
        return label_orbits.label_symmetry(self.gram)

    def projection(self, i: int, j: int) -> np.ndarray:
        v = self.basis.vector(i, j)
        return np.outer(v, v.conj())

    def gram_entry(self, a: tuple[int, int], b: tuple[int, int]) -> complex:
        return complex(self.gram[a[0] - 1, a[1] - 1, b[0] - 1, b[1] - 1])


def model_from_basis(basis: magic_bases.MagicBasis) -> FlatModel:
    """Build the flat model after checking the grid really is magic."""
    G = magic_bases.require_magic(basis).gram
    return FlatModel(basis=basis, n=basis.n, gram=G)


@dataclass(frozen=True)
class MonomialValue:
    """coefficient * |xi_ket><xi_bra|."""

    coefficient: complex
    ket_index: tuple[int, int]
    bra_index: tuple[int, int]

    def matrix(self, model: FlatModel) -> np.ndarray:
        ket = model.basis.vector(*self.ket_index)
        bra = model.basis.vector(*self.bra_index)
        return self.coefficient * np.outer(ket, bra.conj())

    def trace(self, model: FlatModel) -> complex:
        return self.coefficient * model.gram_entry(self.bra_index, self.ket_index)


def monomial_value(model: FlatModel, mono: Monomial) -> MonomialValue:
    """Closed-form value of a generator word in the model.

    The coefficient is the product of consecutive Gram factors; the word is
    zero in the model iff |coefficient| <= TOL_ZERO.
    """
    if not mono:
        raise EmptyMonomial("use the explicit identity for the empty word")
    validate_monomial(mono, model.n)
    coeff = complex(1.0)
    for a, b in zip(mono, mono[1:]):
        coeff *= model.gram_entry(a, b)
    return MonomialValue(coefficient=coeff, ket_index=mono[0], bra_index=mono[-1])


# --- free-orbital scan -------------------------------------------------------

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


@dataclass
class OrbitalScanReport:
    """Free-orbital verdict over every length-m word of a model.

    ``min_nonzero`` is the smallest |coefficient| among words without a
    consecutive row/column clash; ``max_zero`` the largest among words with
    one (None when m = 1: no adjacent pairs exist).  The scan passes when the
    vanishing words are exactly the trivially-zero ones.
    """

    n: int
    m: int
    total: int
    passed: bool
    min_nonzero: float
    max_zero: float | None
    violations: list = field(default_factory=list)

    def gap_ratio(self) -> float | None:
        if self.max_zero is None:
            return None
        if self.max_zero == 0.0:
            return math.inf
        return self.min_nonzero / self.max_zero

    def to_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "total_words": self.total,
            "pass": self.passed,
            "gap_min_nonzero": self.min_nonzero,
            "gap_max_zero": self.max_zero,
            "violations": [[list(p) for p in w] for w in self.violations],
            "tol_zero": TOL_ZERO, "tol_nonzero": TOL_NONZERO,
        }


def check_free_orbitals(model: FlatModel, m: int,
                        budget: int = DEFAULT_BUDGET) -> OrbitalScanReport:
    """Decide the free m-orbital property over all n^(2m) words of length m.

    A word's |coefficient| is the product of the Gram magnitudes M[p, q]
    along its path p1 -> ... -> pm on the n^2 pairs, taken left to right.
    The extremes are path extremes, found by a min/max-product recursion
    over the m - 1 steps that tracks whether a clash has happened yet, in
    O(m n^4) time and O(n^4) memory.  For c >= 0 the map x -> fl(x c) is
    monotone, so they equal the extremes of the word-by-word products bit
    for bit.  A violation exists iff ``min_nonzero <= TOL_ZERO`` or
    ``max_zero > TOL_ZERO``; only then does a pruned depth-first search list
    the first ``MAX_VIOLATIONS`` of them in lexicographic word order.
    ``budget`` bounds the number of words the verdict covers, n^(2m).
    """
    n = model.n
    report = scan_start(n, m, budget)
    if m == 1:
        return report

    n2 = n * n
    M = np.abs(model.gram).reshape(n2, n2)
    same_row, same_col = _shared_index(n)
    clash = same_row ^ same_col

    # words of length m as paths of m - 1 steps, each product left to right
    lo, _, hit = _path_tables(M.T, clash, m - 1)[-1]
    min_nonzero = float(lo.min())
    max_zero = float(hit.max())

    passed = min_nonzero > max(TOL_ZERO, TOL_NONZERO) and max_zero <= TOL_ZERO
    violations = []
    if min_nonzero <= TOL_ZERO or max_zero > TOL_ZERO:
        violations = _first_violations(M, clash, n, m)
    return replace(report, passed=passed, min_nonzero=min_nonzero,
                   max_zero=max_zero, violations=violations)


def scan_start(n: int, m: int, budget: int) -> OrbitalScanReport:
    """The opening both orbital checks share: refuse m < 1, a budget below
    1 and more than ``budget`` words, and return the m = 1 report, which
    passes since a single factor has no neighbour to clash with.  It needs
    n alone, so a caller can run it before building the model."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    total = n ** (2 * m)
    if total > budget:
        raise BudgetExceeded(f"scan touches {total} words > budget {budget}")
    return OrbitalScanReport(n=n, m=m, total=total, passed=True,
                             min_nonzero=1.0, max_zero=None)


def _path_tables(A: np.ndarray, clash: np.ndarray, steps: int) -> list:
    """Product extremes over the paths q -> s1 -> ... -> sr of r steps out of
    each pair q, for r = 0..steps, each product formed as
    A[q, s1] * (the product over the rest of the path).

    Entry r holds three arrays over q: the minimum over paths without a
    clash, the maximum over all paths, and the maximum over paths with a
    clash (0.0 when there is none: entries are >= 0, and -inf * 0 is nan).
    With A = M.T the paths run backwards, so they are words ending at q with
    products taken left to right."""
    n2 = len(A)
    lo, top, hit = np.ones(n2), np.ones(n2), np.zeros(n2)
    tables = [(lo, top, hit)]
    for _ in range(steps):
        cont = A * top
        hit = np.maximum((A * hit).max(axis=1),
                         np.where(clash, cont, 0.0).max(axis=1))
        top = cont.max(axis=1)
        lo = np.where(clash, np.inf, A * lo).min(axis=1)
        tables.append((lo, top, hit))
    return tables


def _first_violations(M: np.ndarray, clash: np.ndarray, n: int, m: int) -> list:
    """The first ``MAX_VIOLATIONS`` violating words of length m in
    lexicographic order.

    A violation is a clash-free word of product <= TOL_ZERO or a word with a
    clash of product > TOL_ZERO.  The search extends a prefix one pair at a
    time, carrying its end pair, its exact left-to-right product and whether
    it has clashed, and enters a child only when some completion of it may
    be a violation, judged from the path tables of the factors still to
    come.  Those associate right to left, so the test allows a relative
    slack of a few ulps per factor, and one subnormal ulp per factor for
    underflow (Gram magnitudes are at most 1).  A leaf applies the exact
    predicate to the exact product."""
    tables = _path_tables(M, clash, m - 1)
    up, down = 1.0 + 4 * m * _EPS, 1.0 - 4 * m * _EPS
    floor = (m + 1) * _TINY
    found: list = []

    def children(prefix, row, clash_row, x, clashed):
        """The prefix's exact products and clash flags one factor on, and an
        iterator over the pairs worth entering, in order."""
        xs = x * row
        cs = clashed | clash_row
        r = m - len(prefix) - 1
        if r == 0:
            bad = np.where(cs, xs > TOL_ZERO, xs <= TOL_ZERO)
        else:
            lo, top, hit = tables[r]
            best = xs * np.where(cs, top, hit) * up + floor
            least = xs * lo * down - floor
            bad = (best > TOL_ZERO) | (~cs & (least <= TOL_ZERO))
        return prefix, xs, cs, iter(np.flatnonzero(bad).tolist())

    # an explicit stack of open prefixes: words may be longer than the
    # interpreter's recursion limit.  The empty prefix: every lead pair has
    # product 1 and no clash
    stack = [children((), np.ones(len(M)), np.zeros(len(M), dtype=bool), 1.0, False)]
    while stack and len(found) < MAX_VIOLATIONS:
        prefix, xs, cs, todo = stack[-1]
        s = next(todo, None)
        if s is None:
            stack.pop()
        elif len(prefix) == m - 1:
            found.append(tuple((p // n + 1, p % n + 1) for p in prefix + (s,)))
        else:
            stack.append(children(prefix + (s,), M[s], clash[s], xs[s], cs[s]))
    return found


# --- commutation pattern -----------------------------------------------------

def commutation_pattern(model: FlatModel) -> np.ndarray:
    """Boolean (n^2, n^2) matrix: entry[(i,j),(k,l)] iff v_ij and v_kl commute.

    Pairs are enumerated row-major, pair (i, j) at index (i-1)*n + (j-1).
    For a rank-one model the commutator norm has the closed form
    sqrt(2) * |g| * sqrt(1 - |g|^2) with g = <xi_ij, xi_kl>, so commutation
    is exactly |g| in {0, 1}.
    """
    n = model.n
    mags = np.abs(model.gram).reshape(n * n, n * n)
    comm_norm = math.sqrt(2.0) * mags * np.sqrt(np.clip(1.0 - mags ** 2, 0.0, None))
    # v_ij commutes with itself exactly; the closed form amplifies the one-ulp
    # noise in |<xi, xi>| = 1 to sqrt size, so pin the diagonal
    np.fill_diagonal(comm_norm, 0.0)
    return comm_norm <= TOL_COMMUTE


def expected_commutation_pattern(n: int) -> np.ndarray:
    """The pattern [i = k or j = l] in the same (n^2, n^2) layout."""
    same_row, same_col = _shared_index(n)
    return same_row | same_col


def _shared_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (n^2, n^2) matrices [i = k] and [j = l] over pairs (i, j),
    (k, l) in row-major order.  Their XOR is ``pairs_clash`` on every two
    pairs at once."""
    pairs = np.arange(n * n)
    rows, cols = pairs // n, pairs % n
    return rows[:, None] == rows[None, :], cols[:, None] == cols[None, :]


# --- classical contrast model --------------------------------------------------

@dataclass(frozen=True)
class ClassicalModel:
    """S_n acting on 1..n; the generator u_ij is the indicator 1_(sigma(j) = i)."""

    n: int


def classical_model(n: int) -> ClassicalModel:
    if n < 1:
        raise DimensionTooSmall(f"the classical model needs n >= 1, got {n}")
    return ClassicalModel(n=n)


def classical_haar(n: int, mono: Monomial) -> Fraction:
    """Uniform average over S_n of prod_t 1_(sigma(j_t) = i_t), in O(m).

    The constraints sigma(j_t) = i_t hold together for some permutation iff
    {j_t -> i_t} is a partial bijection: equal columns carry equal rows and
    equal rows carry equal columns.  Then d distinct constraints leave (n-d)!
    of the n! permutations, so the value is 1/(n(n-1)...(n-d+1)); otherwise
    it is 0."""
    validate_monomial(mono, n)
    sigma: dict[int, int] = {}
    preimage: dict[int, int] = {}
    for i, j in mono:
        if sigma.setdefault(j, i) != i or preimage.setdefault(i, j) != j:
            return Fraction(0)
    return Fraction(1, math.perm(n, len(sigma)))


def classical_zero(cm: ClassicalModel, mono: Monomial) -> bool:
    """True iff no sigma in S_n satisfies sigma(j_t) = i_t for every factor."""
    return classical_haar(cm.n, mono) == 0


def check_free_orbitals_classical(cm: ClassicalModel, m: int,
                                  budget: int = DEFAULT_BUDGET) -> OrbitalScanReport:
    """Classical analogue of the scan over all n^(2m) words, by structure.

    A word is classically zero iff some two of its factors clash (share
    exactly one of row/column), and trivially zero iff two adjacent ones do;
    the violations are the zero words that are not trivially zero.  There
    are none iff m <= 2 or n <= 2.  For m <= 2 all factors are adjacent.
    For n <= 2 adjacent factors without a clash are equal or differ in both
    row and column, so such a word stays inside one perfect matching of
    pairs ({(1,1), (2,2)} or {(1,2), (2,1)}), no two of which clash.  For
    n, m >= 3 the word (1,1)...(1,1),(2,2),(1,3) is a violation.  Only then
    does a search list the first ``MAX_VIOLATIONS`` violations in
    lexicographic order.  ``budget`` bounds the words the verdict covers,
    n^(2m); the gap statistics are 1.0 / 0.0, products being 0/1-valued."""
    n = cm.n
    report = scan_start(n, m, budget)
    if m == 1:
        return report
    passed = m <= 2 or n <= 2
    violations = [] if passed else _classical_violations(n, m)
    return replace(report, passed=passed, max_zero=0.0, violations=violations)


def _classical_violations(n: int, m: int) -> list:
    """The first ``MAX_VIOLATIONS`` violations of length m >= 3 at n >= 3, in
    lexicographic order, by a depth-first search over pairs.

    A prefix carries its reach, the pairs that clash with one of its factors
    but the last, and whether it has clashed.  A child clear of the last
    factor keeps the word free of adjacent clashes, and clashes with an
    earlier factor iff it lies in the reach; the leaves take this exact
    predicate.  No subtree needs pruning.  Every prefix with two or more
    factors to go has a violating completion: after a last factor (a, b),
    take (a', b') with a' != a, b' != b, then (a, c) with c outside {b, b'}
    up to the end.  A prefix with one factor to go has none only when its
    last factor repeats the one before, (a, b) say: if it ends (a, b),
    (a', b') instead, the row-mate (a, c) of (a, b) with c outside {b, b'}
    lies in its reach and is clear of (a', b').  So the search enters at
    most one fruitless node per node it expands a factor earlier."""
    same_row, same_col = _shared_index(n)
    clash = same_row ^ same_col
    found: list = []
    # an explicit stack, children pushed last-first: words may be longer
    # than the interpreter's recursion limit
    stack = [((), np.zeros(n * n, dtype=bool), False)]
    while stack and len(found) < MAX_VIOLATIONS:
        prefix, reach, clashed = stack.pop()
        row = clash[prefix[-1]] if prefix else reach   # no last factor: no clash
        hit = reach | clashed                 # the child makes the word clash
        if len(prefix) == m - 1:
            leaves = np.flatnonzero(~row & hit).tolist()
            found += [prefix + (s,) for s in leaves[:MAX_VIOLATIONS - len(found)]]
        else:
            grown = reach | row
            stack += [(prefix + (s,), grown, bool(hit[s]))
                      for s in reversed(np.flatnonzero(~row).tolist())]
    return [tuple((p // n + 1, p % n + 1) for p in word) for word in found]
