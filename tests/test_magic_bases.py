import cmath
import io
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import brute_oracle
import tensor_ops
from qperm import flat_model as fm
from qperm import magic_bases as mb
from qperm.errors import DimensionTooSmall, IndexOutOfRange, NotMagic

ALL_N = list(range(4, 13))


def make_basis(n):
    return mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n)


class TestPauliBasis:
    def test_first_column_is_standard_basis(self):
        basis = mb.build_pauli_basis_4()
        for i in range(1, 5):
            expected = np.zeros(4)
            expected[i - 1] = 1.0
            assert np.allclose(basis.vector(i, 1), expected)

    def test_entry_2_2(self):
        basis = mb.build_pauli_basis_4()
        assert np.allclose(basis.vector(2, 2),
                           np.array([1, 0, -2, 2]) / 3.0)
        assert basis.exact_vector(2, 2) == (
            Fraction(1, 3), Fraction(0), Fraction(-2, 3), Fraction(2, 3))

    def test_gram_1_1_vs_2_2_is_one_third(self):
        basis = mb.build_pauli_basis_4()
        assert abs(mb.gram(basis, (1, 1), (2, 2)) - 1 / 3) < 1e-15
        exact = sum(a * b for a, b in zip(basis.exact_vector(1, 1),
                                          basis.exact_vector(2, 2)))
        assert exact == Fraction(1, 3)

    def test_is_magic(self):
        report = mb.verify_magic(mb.build_pauli_basis_4())
        assert report.magic_ok
        assert report.max_residual < 1e-12

    def test_exhaustive_gram_scan_suitably_noncommutative(self):
        basis = mb.build_pauli_basis_4()
        G = mb.gram_table(basis)
        for i, j, k, l in itertools.product(range(1, 5), repeat=4):
            g = abs(G[i - 1, j - 1, k - 1, l - 1])
            if i != k and j != l:
                assert 1e-9 < g < 1 - 1e-9, (i, j, k, l)
        report = mb.verify_suitably_noncommutative(basis)
        assert report.suitably_noncommutative_ok


class TestFourierBasis:
    def test_rejects_small_dimension(self):
        with pytest.raises(DimensionTooSmall):
            mb.build_fourier_basis(4)

    def test_middle_block_entry_n5(self):
        basis = mb.build_fourier_basis(5)
        # i = j makes the phase of every middle coordinate trivial
        assert abs(basis.vector(1, 1)[1] - 1 / math.sqrt(5)) < 1e-12

    def test_same_row_orthogonal(self):
        basis = mb.build_fourier_basis(5)
        assert abs(mb.gram(basis, (1, 1), (1, 2))) < 1e-12

    def test_resonant_value_n5(self):
        # (k-i)+(j-l) = 0 mod 5 with k-i = 1, e.g. (1,1) vs (2,2)
        basis = mb.build_fourier_basis(5)
        g = mb.gram(basis, (1, 1), (2, 2))
        expected = 1 + (2 * math.cos(2 * math.pi / 5) - 2) / 5
        assert abs(g - expected) < 1e-12
        assert abs(g - 0.7236067977499789) < 1e-12

    @pytest.mark.parametrize("n", range(5, 41))
    def test_matches_loop_oracle(self, n):
        # bit for bit: the uint64 view tells 0.0 from -0.0
        got = mb.build_fourier_basis(n).xi
        want = brute_oracle.fourier_basis_loop(n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", range(5, 13))
    def test_unit_vectors(self, n):
        basis = mb.build_fourier_basis(n)
        norms = np.linalg.norm(basis.xi, axis=2)
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", range(5, 13))
    def test_closed_form_all_quadruples(self, n):
        basis = mb.build_fourier_basis(n)
        G = mb.gram_table(basis)
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            got = G[i - 1, j - 1, k - 1, l - 1]
            want = tensor_ops.fourier_gram_closed_form(n, (i, j), (k, l))
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("n", range(5, 13))
    def test_case_windows(self, n):
        basis = mb.build_fourier_basis(n)
        G = mb.gram_table(basis)
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            case = mb.fourier_case((i, j), (k, l), n)
            g = complex(G[i - 1, j - 1, k - 1, l - 1])
            if case == "resonant":
                assert abs(g.imag) < 1e-12
                assert 1 - 4 / n - 1e-12 <= g.real < 1
            elif case == "generic":
                assert 1e-12 < abs(g) <= 4 / n + 1e-12


@st.composite
def _unit_grids(draw):
    """An (n, n, n) grid of random vectors of about unit length, n = 1..12:
    complex or real, C-contiguous or a strided view of a larger array."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())
    xi = rng.standard_normal((n, n, 2 * n))
    if not real:
        xi = xi + 1j * rng.standard_normal((n, n, 2 * n))
    xi /= np.linalg.norm(xi, axis=2, keepdims=True) / math.sqrt(2)
    return xi[:, :, ::2] if draw(st.booleans()) else np.ascontiguousarray(xi[:, :, :n])


class TestGramTable:
    """The one-product table against the einsum oracle and the exact values."""

    @pytest.mark.parametrize("n", range(5, 21))
    def test_fourier_matches_oracle_and_closed_form(self, n):
        basis = mb.build_fourier_basis(n)
        G = mb.gram_table(basis)
        assert G.shape == (n, n, n, n)
        assert np.abs(G - brute_oracle.gram_einsum(basis.xi)).max() < 1e-14
        rng = np.random.default_rng(n)
        for i, j, k, l in rng.integers(1, n + 1, (2000, 4)).tolist():
            want = tensor_ops.fourier_gram_closed_form(n, (i, j), (k, l))
            assert abs(G[i - 1, j - 1, k - 1, l - 1] - want) < 1e-14

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_unit_grids())
    @example(np.arange(1.0, 28.0).reshape(3, 3, 3) / 27)                 # real
    @example(np.asfortranarray(mb.build_fourier_basis(5).xi))           # column-major
    @example(mb.build_fourier_basis(6).xi.transpose(1, 0, 2))           # rows and columns swapped
    def test_random_grids_match_oracle(self, xi):
        n = xi.shape[0]
        G = mb.gram_table(mb.MagicBasis(n=n, xi=xi))
        want = brute_oracle.gram_einsum(xi)
        assert G.shape == want.shape and G.dtype == want.dtype
        assert np.abs(G - want).max() < 1e-14

    def test_pauli4_is_the_exact_table_rounded_once(self):
        basis = mb.build_pauli_basis_4()
        G = mb.gram_table(basis)
        for a, b in itertools.product(itertools.product(range(1, 5), repeat=2), repeat=2):
            exact = sum(x * y for x, y in zip(basis.exact_vector(*a), basis.exact_vector(*b)))
            assert G[a[0] - 1, a[1] - 1, b[0] - 1, b[1] - 1] == float(exact), (a, b)
        # bit for bit the einsum table, whose sums happen to round the same
        want = brute_oracle.gram_einsum(basis.xi)
        assert np.array_equal(G.view(np.uint64), want.view(np.uint64))


class TestVerification:
    @pytest.mark.parametrize("n", ALL_N)
    def test_constructed_bases_verify(self, n):
        report = mb.verify_suitably_noncommutative(make_basis(n))
        assert report.magic_ok
        assert report.suitably_noncommutative_ok
        assert not report.violations

    def test_duplicated_vector_breaks_row(self):
        basis = mb.build_fourier_basis(7)
        xi = basis.xi.copy()
        xi[0, 0] = xi[0, 1]
        broken = mb.MagicBasis(n=7, xi=xi, kind="custom")
        report = mb.verify_magic(broken)
        assert not report.magic_ok
        assert any(a[0] == 1 and b[0] == 1 for a, b, _, _ in report.violations)
        with pytest.raises(NotMagic):
            mb.require_magic(broken)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_matches_loop_reference(self, n):
        # the vectorised check must list the violations of the pairwise
        # loop over rows then columns, in the same order, with the same values
        rng = np.random.default_rng(n)
        xi = make_basis(n).xi.copy()
        xi[0, 0] = xi[0, 1]
        for _ in range(3):
            xi[tuple(rng.integers(0, n, 3))] += 1e-6 * rng.standard_normal()
        basis = mb.MagicBasis(n=n, xi=xi)
        G = mb.gram_table(basis)
        violations, worst = [], 0.0
        for axis in ("row", "column"):
            for s, u, v in itertools.product(range(1, n + 1), repeat=3):
                a, b = ((s, u), (s, v)) if axis == "row" else ((u, s), (v, s))
                g = complex(G[a[0] - 1, a[1] - 1, b[0] - 1, b[1] - 1])
                resid = abs(g - (1.0 if a == b else 0.0))
                worst = max(worst, resid)
                if resid > mb.TOL_CONSTRUCT:
                    violations.append((a, b, g, f"{axis} gram"))
        # the list as capped, and whole under a cap above it
        for cap in (mb.MAX_VIOLATIONS, 10 ** 6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mb, "MAX_VIOLATIONS", cap)
                report = mb.verify_magic(basis)
            assert report.violations == violations[:cap]
            assert abs(report.max_residual - worst) <= 1e-15 * worst
        with pytest.raises(NotMagic, match=rf"first violation \({violations[0][0][0]}, "):
            mb.require_magic(basis)

    def test_gram_conjugate_symmetry(self):
        basis = mb.build_fourier_basis(6)
        for a, b in [((1, 2), (3, 4)), ((2, 5), (6, 1)), ((4, 4), (5, 2))]:
            assert mb.gram(basis, a, b) == complex(np.conj(mb.gram(basis, b, a)))

    def test_gram_diagonal_is_one(self):
        basis = mb.build_fourier_basis(5)
        assert abs(mb.gram(basis, (3, 4), (3, 4)) - 1.0) < 1e-12

    def test_index_out_of_range(self):
        basis = mb.build_pauli_basis_4()
        with pytest.raises(IndexOutOfRange):
            mb.gram(basis, (0, 1), (1, 1))
        with pytest.raises(IndexOutOfRange):
            mb.gram(basis, (1, 1), (1, 5))


def _latin_grid(n):
    """xi_ij = e_(i+j mod n): magic, with every off-orbit overlap 0 or 1."""
    xi = np.zeros((n, n, n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        xi[i, j, (i + j) % n] = 1.0
    return xi


def _noncommutativity_cases():
    """(name, basis, reasons the loop oracle must find) for the array check."""
    cases = [(f"fourier{n}", mb.build_fourier_basis(n), set()) for n in range(5, 10)]
    cases.append(("pauli4", mb.build_pauli_basis_4(), set()))
    # magic grids that fail: overlaps 0 and 1 off the orbits; rows permuted,
    # which moves values across the resonant and generic windows; phases,
    # which take the resonant values off the real axis
    cases.append(("latin6", mb.MagicBasis(n=6, xi=_latin_grid(6), kind="fourier"),
                  {"magnitude not strictly inside (0,1)"}))
    perm = mb.build_fourier_basis(7).xi[[0, 2, 4, 6, 1, 3, 5]]
    cases.append(("rows7", mb.MagicBasis(n=7, xi=perm, kind="fourier"),
                  {"resonant value outside [1-4/n, 1)",
                   "generic magnitude outside (0, 4/n]"}))
    rng = np.random.default_rng(5)
    phased = mb.build_fourier_basis(5).xi * np.exp(2j * np.pi * rng.random((5, 5)))[..., None]
    cases.append(("phases5", mb.MagicBasis(n=5, xi=phased, kind="fourier"),
                  {"resonant value outside [1-4/n, 1)"}))
    return cases


class TestNoncommutativityArrayCheck:
    @pytest.mark.parametrize("basis,reasons", [
        pytest.param(basis, reasons, id=name)
        for name, basis, reasons in _noncommutativity_cases()])
    def test_matches_loop_oracle(self, basis, reasons):
        want = brute_oracle.noncommutativity_violations(
            mb.gram_table(basis), basis.n, basis.kind == "fourier")
        assert {reason for *_, reason in want} == reasons
        # the list as capped, and whole under a cap above it
        for cap in (mb.MAX_VIOLATIONS, 10 ** 6):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mb, "MAX_VIOLATIONS", cap)
                report = mb.verify_suitably_noncommutative(basis)
            assert report.magic_ok
            assert report.violations == want[:cap]
            assert report.suitably_noncommutative_ok == (not want)

    def test_nan_entries_are_violations(self, monkeypatch):
        # NaN off the row/column orbits leaves the magic check passing; the
        # noncommutativity check must still flag it, as the loop does
        basis = mb.build_fourier_basis(6)
        G = mb.gram_table(basis)
        G[0, 0, 1, 1] = G[2, 3, 4, 5] = complex("nan")
        monkeypatch.setattr(mb, "gram_table", lambda b: G)
        report = mb.verify_suitably_noncommutative(basis)
        assert report.magic_ok and not report.suitably_noncommutative_ok
        want = brute_oracle.noncommutativity_violations(G, 6, True)
        assert [(a, b, r) for a, b, _, r in report.violations] == \
            [(a, b, r) for a, b, _, r in want] == \
            [((1, 1), (2, 2), "magnitude not strictly inside (0,1)"),
             ((3, 4), (5, 6), "magnitude not strictly inside (0,1)")]


class TestViolationCap:
    """A failing grid lists the first ``MAX_VIOLATIONS`` entries of the
    oracle's list, and the verdicts stay those of the whole list."""

    def test_latin_grid_at_20(self):
        # every one of the 20^2 19^2 off-orbit overlaps is 0 or 1
        basis = mb.MagicBasis(n=20, xi=_latin_grid(20), kind="fourier")
        report = mb.verify_suitably_noncommutative(basis)
        want = brute_oracle.noncommutativity_violations(report.gram, 20, True)
        assert len(want) == 20 ** 2 * 19 ** 2
        assert report.magic_ok and not report.suitably_noncommutative_ok
        assert report.violations == want[:mb.MAX_VIOLATIONS]

    @pytest.mark.parametrize("block", [1, 2 * 7 ** 3, 5 * 7 ** 3])
    def test_cap_reached_across_blocks(self, block):
        # six zero overlaps per row index and one more at i = 5, 43 in all:
        # the list holds 31 after row index 5, and blocks of one, two and
        # five row indices fill it part way through a later block
        n = 7
        basis = mb.build_fourier_basis(n)
        G = mb.gram_table(basis)
        for i in range(n):
            G[i, 0, (i + 1) % n, 1:] = 0.0
        G[4, 1, 5, 0] = 0.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mb, "gram_table", lambda b: G)
            mp.setattr(mb, "CHECK_BLOCK", block)
            report = mb.verify_suitably_noncommutative(basis)
        want = brute_oracle.noncommutativity_violations(G, n, True)
        assert len(want) == 43
        assert not report.suitably_noncommutative_ok
        assert report.violations == want[:mb.MAX_VIOLATIONS]

    def test_magic_list_capped_rows_first(self):
        # every vector equal: each off-diagonal row and column entry is 1
        n = 5
        basis = mb.MagicBasis(n=n, xi=np.full((n, n, n), 1 / math.sqrt(n), dtype=complex))
        report = mb.verify_magic(basis)
        assert not report.magic_ok
        rows = [((s, u), (s, v)) for s, u, v in itertools.product(range(1, n + 1), repeat=3)
                if u != v]
        assert len(report.violations) == mb.MAX_VIOLATIONS < len(rows)
        assert [(a, b) for a, b, _, _ in report.violations] == rows[:mb.MAX_VIOLATIONS]
        with pytest.raises(NotMagic, match=r"first violation \(1, 1\) vs \(1, 2\)"):
            mb.require_magic(basis)


def _window_edges(n, tol_strict, tol_construct):
    """Groups of Gram values: special ones, then for each edge of a window of
    the check the values on it and one ulp either side."""
    def around(x):
        return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]
    nan, inf = float("nan"), float("inf")
    groups = [[0.0, 1.0, -1.0, 1j, nan, inf, -inf, complex(nan, 0.0), complex(0.0, nan),
               complex(inf, nan)]]
    for edge in (0.0, tol_strict, 1.0 - tol_strict, 4.0 / n + tol_construct):
        groups.append([w * x for x in around(edge) for w in (1.0, -1.0, 1j)])
    for re in (1.0 - 4.0 / n - tol_construct, 1.0):
        groups.append([complex(x, im) for x in around(re)
                       for im in [0.0, *around(tol_construct), -tol_construct]])
    return groups


@st.composite
def _perturbed_tables(draw, sizes):
    """(n, kind, phase seed or None, tol_strict, tol_construct, overwrites):
    a magic grid and the off-orbit Gram entries to overwrite, the resonant
    ones among them, each as ((i, j, k, l), value) with 0-based indices."""
    n = draw(st.sampled_from(sizes))
    kind = draw(st.sampled_from(["fourier", "custom"]))
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    # a negative tol_strict lets the generic window's own 0 < |g| and the
    # resonant window's re < 1 decide; at 0.3 the magnitude window is the
    # narrower one, above the resonant window's floor 1 - 4/n at n = 5
    tol_strict = draw(st.sampled_from([mb.TOL_STRICT, 0.0, 1e-3, -1e-3, 0.3]))
    tol_construct = draw(st.sampled_from([mb.TOL_CONSTRUCT, 1e-6]))
    groups = _window_edges(n, tol_strict, tol_construct)
    overwrites = []
    for _ in range(draw(st.integers(0, 40))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = (i + draw(st.integers(1, n - 1))) % n
        l = draw(st.sampled_from([(k - i + j) % n, (j + draw(st.integers(1, n - 1))) % n]))
        if l != j:
            overwrites.append(((i, j, k, l), draw(st.sampled_from(draw(st.sampled_from(groups))))))
    return n, kind, seed, tol_strict, tol_construct, overwrites


def _bits(violations):
    """Violations with each value as its two bit patterns, so NaNs compare."""
    return [(a, b, np.array([value]).view(np.uint64).tolist(), reason)
            for a, b, value, reason in violations]


# the list cap as it stands, and one above every list, so that the whole
# list is compared with the oracle
_CAPS = st.sampled_from([mb.MAX_VIOLATIONS, 10 ** 6])


class TestNoncommutativityPredicate:
    """The whole-table predicate against the quadruple loop of the oracle."""

    def _check(self, case, block=None, cap=mb.MAX_VIOLATIONS):
        n, kind, seed, tol_strict, tol_construct, overwrites = case
        xi = mb.build_fourier_basis(n).xi
        if seed is not None:               # phases move the resonant values off the axis
            xi = xi * np.exp(2j * np.pi * np.random.default_rng(seed).random((n, n)))[..., None]
        basis = mb.MagicBasis(n=n, xi=xi, kind=kind)
        G = mb.gram_table(basis)
        for at, value in overwrites:
            G[at] = value
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mb, "gram_table", lambda b: G)
            if block is not None:
                mp.setattr(mb, "CHECK_BLOCK", block)
            mp.setattr(mb, "TOL_STRICT", tol_strict)
            mp.setattr(mb, "TOL_CONSTRUCT", tol_construct)
            mp.setattr(mb, "MAX_VIOLATIONS", cap)
            report = mb.verify_suitably_noncommutative(basis)
        assert report.magic_ok
        want = brute_oracle.noncommutativity_violations(
            G, n, kind == "fourier", tol_strict, tol_construct)
        assert _bits(report.violations) == _bits(want[:cap])
        assert report.suitably_noncommutative_ok == (not want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_perturbed_tables(range(5, 10)), st.sampled_from([None, 1, 300, 1000]),
           _CAPS)
    # a resonant value at the magnitude floor, inside the resonant window;
    # a generic 0 that only the generic window's own 0 < |g| rejects
    @example((5, "fourier", None, 0.3, mb.TOL_CONSTRUCT, [((0, 0, 1, 1), 0.3)]), None,
             mb.MAX_VIOLATIONS)
    @example((5, "fourier", None, -1e-3, mb.TOL_CONSTRUCT, [((0, 0, 1, 2), 0.0)]), None,
             mb.MAX_VIOLATIONS)
    def test_small_grids(self, case, block, cap):
        # blocks of one row index, of part of the rows, and of all of them
        self._check(case, block, cap)

    # no shrinking: each n = 20 example runs the quadruple-loop oracle, and
    # shrinking a failure one such call at a time ran for minutes
    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(_perturbed_tables([20]), _CAPS)
    def test_table_of_several_blocks(self, case, cap):
        assert 20 ** 4 > mb.CHECK_BLOCK
        self._check(case, cap=cap)


class TestCheckMemory:
    def test_peak_beyond_the_gram_table(self):
        # the check holds one block's magnitudes and masks (8 + 3 bytes an
        # entry) and arrays of n^2 entries per row index at a time, never a
        # temporary the size of the n^4 table; the margin also covers the
        # n^3-entry row and column blocks of the magic check before it
        n = 20
        basis = mb.build_fourier_basis(n)
        mb.verify_suitably_noncommutative(basis)
        tracemalloc.start()
        try:
            report = mb.verify_suitably_noncommutative(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.suitably_noncommutative_ok
        block = min(n, mb.CHECK_BLOCK // n ** 3) * n ** 3 * (8 + 3)
        assert peak - report.gram.nbytes < block + 160 * 1024


class TestGramReuse:
    def test_gram_table_built_once(self, monkeypatch):
        # the magic check hands its table on; neither caller builds another
        calls = []
        build = mb.gram_table
        monkeypatch.setattr(mb, "gram_table", lambda b: calls.append(b) or build(b))
        basis = mb.build_fourier_basis(7)
        model = fm.model_from_basis(basis)
        assert len(calls) == 1
        assert np.array_equal(model.gram, build(basis))
        report = mb.verify_suitably_noncommutative(basis)
        assert len(calls) == 2
        assert report.suitably_noncommutative_ok


class TestNonFinite:
    def test_verify_magic_fails_on_nan(self):
        xi = mb.build_fourier_basis(5).xi.copy()
        xi[1, 2, 0] = complex("nan")
        report = mb.verify_magic(mb.MagicBasis(n=5, xi=xi))
        assert not report.magic_ok
        assert math.isnan(report.max_residual)
        assert report.violations
        assert all((2, 3) in (a, b) for a, b, _, _ in report.violations)
        assert any(np.isnan(value) for _, _, value, _ in report.violations)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_basis_from_dict_rejects(self, bad):
        data = tensor_ops.basis_to_dict(mb.build_fourier_basis(5))
        data["xi"][1][2][0][1] = bad
        with pytest.raises(ValueError, match="finite"):
            mb.basis_from_dict(data)


def _edge_case_grids():
    """(name, basis) pairs of grids whose coordinates stress the writer."""
    base = mb.build_fourier_basis(5).xi
    nan, inf = float("nan"), float("inf")
    payload_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                           dtype=np.uint64).view(float)
    cells = {
        "signed_zeros": [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                         complex(1.0, -0.0)],
        "non_finite": [nan, complex(0.0, nan), inf, complex(-inf, inf),
                       complex(*payload_nan)],
        "extremes": [5e-324, complex(-2.2250738585072014e-310, 5e-324),
                     complex(1e300, -1e300), complex(-1.7976931348623157e308, 1e-300),
                     0.1],
        "integral": [1.0, -2.0, complex(3.0, -4.0), 1e16, complex(2.0 ** 53, -0.0)],
    }
    grids = []
    for name, values in cells.items():
        xi = base.copy()
        xi[1, 2] = values                      # one vector, next to the roots of unity
        xi[4, 0, ::-1] = values                # and the same values again, reversed
        grids.append((name, mb.MagicBasis(n=5, xi=xi)))
    rng = np.random.default_rng(12)
    distinct = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    grids.append(("all_distinct", mb.MagicBasis(n=6, xi=distinct)))
    grids.append(("escaped_kind", mb.MagicBasis(n=5, xi=base,
                                                kind='a "kind"\\ with\n\u00e9\u2603')))
    return grids


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "b6.json"
        basis = mb.build_fourier_basis(6)
        mb.write_basis(basis, str(path))
        loaded = mb.read_basis(str(path))
        assert loaded.n == 6
        assert np.abs(loaded.xi - basis.xi).max() == 0.0
        assert mb.verify_magic(loaded).magic_ok

    def test_serialization_is_stable(self, tmp_path):
        path = tmp_path / "b5.json"
        mb.write_basis(mb.build_fourier_basis(5), str(path))
        raw = json.loads(path.read_text())
        assert json.dumps(raw) == json.dumps(json.loads(json.dumps(raw)))

    def test_full_precision(self, tmp_path):
        path = tmp_path / "b7.json"
        basis = mb.build_fourier_basis(7)
        mb.write_basis(basis, str(path))
        loaded = mb.read_basis(str(path))
        assert np.abs(loaded.xi - basis.xi).max() == 0.0

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            mb.basis_from_dict({"n": 3, "xi": [[[[1.0, 0.0]]]]})

    @pytest.mark.parametrize("n", range(4, 21))
    def test_bytes_match_nested_list_encoding(self, tmp_path, n):
        # the earlier encoder: per-coordinate floats, streamed by json.dump
        basis = make_basis(n)
        expected = io.StringIO()
        json.dump({"n": n, "kind": basis.kind,
                   "xi": [[[[float(z.real), float(z.imag)] for z in basis.xi[i, j]]
                           for j in range(n)] for i in range(n)]}, expected)
        expected.write("\n")
        path = tmp_path / "b.json"
        mb.write_basis(basis, str(path))
        assert path.read_text() == expected.getvalue()

    @pytest.mark.parametrize("n", range(4, 41))
    def test_bytes_match_reference_encoder(self, tmp_path, n):
        basis = make_basis(n)
        path = tmp_path / "b.json"
        mb.write_basis(basis, str(path))
        assert path.read_bytes() == (json.dumps(tensor_ops.basis_to_dict(basis)) + "\n").encode()

    @pytest.mark.parametrize("basis", [pytest.param(basis, id=name)
                                       for name, basis in _edge_case_grids()])
    def test_edge_case_bytes_match_reference_encoder(self, tmp_path, basis):
        path = tmp_path / "b.json"
        mb.write_basis(basis, str(path))
        assert path.read_bytes() == (json.dumps(tensor_ops.basis_to_dict(basis)) + "\n").encode()


def _floats_in(obj):
    if isinstance(obj, float):
        return 1
    if isinstance(obj, (list, tuple)):
        return sum(_floats_in(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_floats_in(item) for item in obj.values())
    return 0


class TestStructuralCost:
    # call counts, not timings: each fails if the per-coordinate loop returns

    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_fourier_build_takes_n_exponentials(self, monkeypatch, n):
        calls = []
        exp = cmath.exp
        monkeypatch.setattr(cmath, "exp", lambda z: calls.append(z) or exp(z))
        mb.build_fourier_basis(n)
        assert len(calls) == n

    @pytest.mark.parametrize("n", [5, 12, 20])
    def test_writer_formats_each_distinct_pair_once(self, tmp_path, monkeypatch, n):
        basis = mb.build_fourier_basis(n)
        formatted = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps",
                            lambda obj, **kw: formatted.append(_floats_in(obj)) or dumps(obj, **kw))
        mb.write_basis(basis, str(tmp_path / "b.json"))
        assert sum(formatted) <= 2 * n          # at most n [re, im] pairs
