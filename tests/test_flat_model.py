import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_oracle
import tensor_ops
from qperm import flat_model as fm
from qperm import magic_bases as mb
from qperm.errors import (BudgetExceeded, DimensionTooSmall, EmptyMonomial,
                          NotMagic)


@pytest.fixture(scope="module")
def model4():
    return fm.model_from_basis(mb.build_pauli_basis_4())


@pytest.fixture(scope="module")
def model5():
    return fm.model_from_basis(mb.build_fourier_basis(5))


class TestMonomialText:
    def test_parse_format_round_trip(self):
        mono = ((1, 3), (2, 2), (1, 1))
        assert fm.parse_monomial("1:3,2:2,1:1") == mono
        assert fm.format_monomial(mono) == "1:3,2:2,1:1"

    def test_empty_is_identity(self):
        assert fm.parse_monomial("") == ()

    def test_bad_item(self):
        with pytest.raises(ValueError):
            fm.parse_monomial("1:1,22")


class TestWordCombinatorics:
    def test_trivially_zero(self):
        assert not fm.is_trivially_zero(((1, 3), (2, 2), (1, 1)))
        assert fm.is_trivially_zero(((1, 1), (1, 2)))
        assert not fm.is_trivially_zero(((1, 1), (1, 1)))

    def test_reduce_collapses_adjacent_equal(self):
        assert fm.reduce_monomial(((1, 1), (1, 1), (2, 2))) == ((1, 1), (2, 2))

    def test_reduce_detects_clash(self):
        assert fm.reduce_monomial(((1, 1), (1, 2))) is None
        # a collapse can expose a clash
        assert fm.reduce_monomial(((1, 1), (2, 2), (2, 2), (2, 3))) is None

    def test_reduce_keeps_separated_repeat(self):
        word = ((1, 1), (2, 2), (1, 1))
        assert fm.reduce_monomial(word) == word

    def test_reduce_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            word = tuple((rng.randint(1, 4), rng.randint(1, 4))
                         for _ in range(rng.randint(0, 6)))
            once = fm.reduce_monomial(word)
            if once is not None:
                assert fm.reduce_monomial(once) == once


class TestModelConstruction:
    def test_magic_law(self, model4, model5):
        assert tensor_ops.magic_law_residual(model4) < 1e-12
        assert tensor_ops.magic_law_residual(model5) < 1e-11

    def test_rejects_non_magic(self):
        xi = mb.build_fourier_basis(5).xi.copy()
        xi[0, 0] = xi[0, 1]
        with pytest.raises(NotMagic):
            fm.model_from_basis(mb.MagicBasis(n=5, xi=xi, kind="custom"))

    def test_projections_are_projections(self, model5):
        for i, j in [(1, 1), (2, 4), (5, 3)]:
            p = model5.projection(i, j)
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-12


class TestMonomialValue:
    def test_single_gram_factor(self, model4):
        val = fm.monomial_value(model4, ((1, 1), (2, 2)))
        assert abs(val.coefficient - 1 / 3) < 1e-14
        assert val.ket_index == (1, 1) and val.bra_index == (2, 2)

    def test_row_clash_vanishes(self, model4):
        val = fm.monomial_value(model4, ((1, 1), (1, 2)))
        assert abs(val.coefficient) < 1e-14

    def test_alternating_word(self, model4):
        val = fm.monomial_value(model4, ((1, 1), (2, 2), (1, 1), (2, 2)))
        assert abs(abs(val.coefficient) - (1 / 3) ** 3) < 1e-14
        assert abs(val.trace(model4) - (1 / 3) ** 4) < 1e-14

    def test_empty_rejected(self, model4):
        with pytest.raises(EmptyMonomial):
            fm.monomial_value(model4, ())

    @pytest.mark.parametrize("n", [4, 5])
    def test_closed_form_matches_literal_product(self, n):
        model = fm.model_from_basis(
            mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n))
        rng = random.Random(20240 + n)
        for _ in range(250):
            m = rng.randint(1, 6)
            mono = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(m))
            literal = model.projection(*mono[0])
            for pair in mono[1:]:
                literal = literal @ model.projection(*pair)
            assert np.abs(fm.monomial_value(model, mono).matrix(model)
                          - literal).max() < 1e-10


class TestOrbitalRelation:
    def test_degree_one_full(self, model5):
        for i, j in itertools.product(range(1, 6), repeat=2):
            assert tensor_ops.orbital_related(model5, (i,), (j,))

    def test_degree_three_example(self, model5):
        assert tensor_ops.orbital_related(model5, (1, 2, 1), (3, 2, 1))

    def test_consecutive_same_row(self, model5):
        assert not tensor_ops.orbital_related(model5, (1, 1), (2, 3))

    @pytest.mark.parametrize("m", [1, 2])
    def test_reflexive_and_symmetric(self, model5, m):
        n = model5.n
        for itup in itertools.product(range(1, n + 1), repeat=m):
            assert tensor_ops.orbital_related(model5, itup, itup)
        for itup in itertools.product(range(1, n + 1), repeat=m):
            for jtup in itertools.product(range(1, n + 1), repeat=m):
                assert tensor_ops.orbital_related(model5, itup, jtup) == \
                    tensor_ops.orbital_related(model5, jtup, itup)


class TestFreeOrbitalScan:
    @pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3)])
    def test_scans_pass(self, n, m):
        model = fm.model_from_basis(
            mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n))
        report = fm.check_free_orbitals(model, m)
        assert report.passed
        assert report.total == n ** (2 * m)
        if m > 1:
            assert report.min_nonzero > 1e-9
            assert report.max_zero <= 1e-12

    def test_zero_set_is_exactly_the_clashes(self, model5):
        # independent brute force at m = 2
        report = fm.check_free_orbitals(model5, 2)
        assert report.passed
        for p1 in itertools.product(range(1, 6), repeat=2):
            for p2 in itertools.product(range(1, 6), repeat=2):
                mono = (p1, p2)
                coeff = fm.monomial_value(model5, mono).coefficient
                assert (abs(coeff) <= 1e-12) == fm.is_trivially_zero(mono)

    def test_budget(self, model5):
        with pytest.raises(BudgetExceeded):
            fm.check_free_orbitals(model5, 5, budget=10 ** 6)

    def test_violation_witnesses_decode_correctly(self, model4):
        # an absurd zero threshold flags clash-free words; the reported
        # witnesses must actually be clash-free words of small coefficient
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "TOL_ZERO", 0.2)
            mp.setattr(fm, "MAX_VIOLATIONS", 16)
            report = fm.check_free_orbitals(model4, 3)
        assert not report.passed
        assert report.violations
        for word in report.violations:
            assert len(word) == 3
            assert not fm.is_trivially_zero(word)
            coeff = fm.monomial_value(model4, word).coefficient
            assert abs(coeff) <= 0.2

    def test_report_json_shape(self, model4):
        data = fm.check_free_orbitals(model4, 2).to_dict()
        assert data["pass"] is True
        assert set(data) >= {"pass", "gap_min_nonzero", "gap_max_zero", "violations"}


class TestCommutationPattern:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_pattern_matches_expectation(self, n):
        model = fm.model_from_basis(
            mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n))
        got = fm.commutation_pattern(model)
        assert np.array_equal(got, fm.expected_commutation_pattern(n))

    def test_norm_formula_against_literal(self, model4):
        n = 4
        pattern = fm.commutation_pattern(model4)
        for i, j, k, l in itertools.product(range(1, 5), repeat=4):
            a = model4.projection(i, j)
            b = model4.projection(k, l)
            comm = np.abs(a @ b - b @ a).max()
            expected = pattern[(i - 1) * n + (j - 1), (k - 1) * n + (l - 1)]
            assert (comm < 1e-10) == expected

    def test_examples(self, model4):
        n = 4
        pat = fm.commutation_pattern(model4)

        def at(a, b):
            return pat[(a[0] - 1) * n + a[1] - 1, (b[0] - 1) * n + b[1] - 1]

        assert at((1, 1), (1, 2))       # same row: orthogonal, commute
        assert at((1, 1), (1, 1))
        assert not at((1, 1), (2, 2))   # |<xi11, xi22>| = 1/3 strictly inside (0,1)


class TestClassicalModel:
    def test_cap(self):
        # no dimension cap: n = 9 scans, and only the word budget refuses
        assert fm.check_free_orbitals_classical(fm.classical_model(9), 2).passed
        with pytest.raises(BudgetExceeded):
            fm.check_free_orbitals_classical(fm.classical_model(40), 4)
        with pytest.raises(DimensionTooSmall):
            fm.classical_model(0)
        with pytest.raises(ValueError):
            fm.check_free_orbitals_classical(fm.classical_model(3), 0)

    def test_counts(self):
        # a word that pins a whole permutation holds on one of the 5! = 120
        word = ((2, 1), (3, 2), (1, 3), (5, 4), (4, 5))
        assert fm.classical_haar(5, word) == Fraction(1, 120)
        assert fm.classical_haar(5, ()) == 1

    def test_classical_zero_examples(self):
        cm = fm.classical_model(4)
        assert fm.classical_zero(cm, ((3, 1), (2, 2), (1, 1)))
        assert not fm.classical_zero(cm, ((1, 1), (2, 2)))
        assert not fm.classical_zero(cm, ((1, 2),))

    @pytest.mark.parametrize("n", [4, 5])
    def test_low_orbitals_free_but_not_three(self, n):
        cm = fm.classical_model(n)
        assert fm.check_free_orbitals_classical(cm, 1).passed
        assert fm.check_free_orbitals_classical(cm, 2).passed
        report = fm.check_free_orbitals_classical(cm, 3)
        assert not report.passed

    def test_paper_witness_word(self):
        cm = fm.classical_model(4)
        witness = fm.parse_monomial("1:3,2:2,1:1")
        assert fm.classical_zero(cm, witness)
        assert not fm.is_trivially_zero(witness)

    @pytest.mark.parametrize("n,m", [(1, 66), (2, 14)])
    def test_long_words_pass_below_three(self, n, m):
        # the verdict is structural, so no array grows with m
        report = fm.check_free_orbitals_classical(fm.classical_model(n), m)
        assert report.passed and report.violations == []
        assert report.total == n ** (2 * m)

    def test_first_violations_of_long_words(self):
        # 9^9 words: the search reaches these without enumerating them
        report = fm.check_free_orbitals_classical(fm.classical_model(3), 9)
        lead = ((1, 1),) * 7
        assert report.violations[:3] == [lead + ((2, 2), (1, 3)),
                                          lead + ((2, 2), (3, 1)),
                                          lead + ((2, 3), (1, 2))]
        assert len(report.violations) == 32
        assert all(fm.classical_haar(3, w) == 0 and not fm.is_trivially_zero(w)
                   for w in report.violations)
        assert all(a < b for a, b in zip(report.violations, report.violations[1:]))

    def test_violations_beyond_the_recursion_limit(self):
        m = 1200
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "MAX_VIOLATIONS", 2)
            report = fm.check_free_orbitals_classical(fm.classical_model(3), m,
                                                      budget=3 ** (2 * m))
        lead = ((1, 1),) * (m - 2)
        assert report.violations == [lead + ((2, 2), (1, 3)), lead + ((2, 2), (3, 1))]

    def test_pairs_clash_is_the_array_rule(self):
        n = 3
        pairs = list(itertools.product(range(1, n + 1), repeat=2))
        same_row, same_col = fm._shared_index(n)
        assert np.array_equal(
            np.array([[fm.pairs_clash(a, b) for b in pairs] for a in pairs]),
            same_row ^ same_col)

    def test_partial_bijection_needs_both_directions(self):
        # equal columns with different rows, and equal rows with different
        # columns, are each unsatisfiable
        assert fm.classical_haar(5, ((1, 2), (3, 2))) == 0
        assert fm.classical_haar(5, ((1, 2), (1, 3))) == 0
        assert fm.classical_haar(5, ((1, 2), (3, 4), (1, 2))) == Fraction(1, 20)


def _words(n, max_len):
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    return st.lists(pair, max_size=max_len).map(tuple)


@functools.cache
def _oracle_scan(n, m):
    """``brute_oracle.classical_scan`` with every violation listed, run once
    per shape: at a cap the oracle lists the head of this list."""
    return brute_oracle.classical_scan(n, m, max_violations=10 ** 6)


class TestClassicalAgainstOracle:
    """The partial-bijection closed form, the structural verdict and the
    violation search against the enumeration of S_n in ``brute_oracle``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), _words(n, 5))))
    def test_classical_haar_matches_enumeration(self, case):
        n, word = case
        assert fm.classical_haar(n, word) == brute_oracle.brute_force_classical_haar(n, word)
        assert fm.classical_zero(fm.classical_model(n), word) == \
            brute_oracle.classical_zero(n, word)

    @pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 6)]
                             + [(4, n) for n in range(1, 5)] + [(5, 3)])
    def test_scan_matches_loop(self, n, m):
        report = fm.check_free_orbitals_classical(fm.classical_model(n), m)
        passed, violations = _oracle_scan(n, m)
        assert (report.passed, report.violations) == (passed, violations[:32])
        assert report.total == n ** (2 * m)
        assert report.max_zero == (None if m == 1 else 0.0)

    @pytest.mark.parametrize("max_violations", [0, 1, 7, 32, 10 ** 6])
    def test_scan_violation_cap_matches_loop(self, max_violations):
        for n, m in [(4, 3), (3, 3), (5, 3), (3, 4), (4, 4), (3, 5)]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fm, "MAX_VIOLATIONS", max_violations)
                report = fm.check_free_orbitals_classical(fm.classical_model(n), m)
            passed, violations = _oracle_scan(n, m)
            assert (report.passed, report.violations) == \
                (passed, violations[:max_violations]), (n, m)


def _scan_fields(report):
    return report.passed, report.min_nonzero, report.max_zero, report.violations


@st.composite
def _flat_cases(draw):
    """(model, m, tol_zero, tol_nonzero, cap) over a random real Gram table
    with n in {2, 3}.  Clashing pairs get magnitudes below tol_zero, half of
    them exact zeros, and the others magnitudes in [floor, 1); then a
    ``noise`` share of the entries is replaced by zeros, ones, 1e-10 or
    magnitudes at and next to tol_zero."""
    n = draw(st.sampled_from([3, 2]))
    m = draw(st.sampled_from([4, 3, 2, 1]))
    tol_zero = draw(st.sampled_from([0.2, 0.05, 1e-3, 1e-12]))
    tol_nonzero = draw(st.sampled_from([1e-9, 0.1]))
    cap = draw(st.sampled_from([32, 7, 1, 0, 10 ** 6]))
    floor = draw(st.sampled_from([0.3, 0.9]))
    noise = draw(st.sampled_from([0.02, 0.0, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n2 = n * n
    rows, cols = np.divmod(np.arange(n2), n)
    clash = (rows[:, None] == rows) ^ (cols[:, None] == cols)
    mags = np.where(clash,
                    tol_zero * rng.random((n2, n2)) * rng.integers(0, 2, (n2, n2)),
                    rng.uniform(floor, 1.0, (n2, n2)))
    near = np.array([0.0, 1.0, 1e-10, tol_zero, np.nextafter(tol_zero, 0.0),
                     np.nextafter(tol_zero, 1.0)])
    hit = rng.random((n2, n2)) < noise
    mags[hit] = near[rng.integers(0, len(near), int(hit.sum()))]
    signs = np.where(rng.random((n2, n2)) < 0.5, -1.0, 1.0)  # |.| stays exact
    model = fm.FlatModel(basis=None, n=n, gram=(signs * mags).reshape((n,) * 4))
    return model, m, tol_zero, tol_nonzero, cap


class TestFlatAgainstOracle:
    """The path recursion and its violation search against the word-by-word
    scan of ``brute_oracle.flat_scan``, compared with ==."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_flat_cases())
    def test_random_gram_magnitudes(self, case):
        model, m, tol_zero, tol_nonzero, cap = case
        n = model.n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "TOL_ZERO", tol_zero)
            mp.setattr(fm, "TOL_NONZERO", tol_nonzero)
            mp.setattr(fm, "MAX_VIOLATIONS", cap)
            report = fm.check_free_orbitals(model, m)
        assert report.total == n ** (2 * m)
        if m == 1:
            assert _scan_fields(report) == (True, 1.0, None, [])
        else:
            M = np.abs(model.gram).reshape(n * n, n * n)
            assert _scan_fields(report) == brute_oracle.flat_scan(
                M, n, m, tol_zero, tol_nonzero, cap)

    @pytest.mark.parametrize("n,m", [(5, 3), (6, 3), (8, 3), (5, 4), (6, 4),
                                     (7, 4), (8, 4), (6, 5)])
    def test_grids_match_oracle(self, n, m):
        model = fm.model_from_basis(mb.build_fourier_basis(n))
        M = np.abs(model.gram).reshape(n * n, n * n)
        report = fm.check_free_orbitals(model, m)
        assert report.passed
        assert _scan_fields(report) == brute_oracle.flat_scan(
            M, n, m, fm.TOL_ZERO, fm.TOL_NONZERO, 32)

    @pytest.mark.parametrize("max_violations", [0, 1, 7, 10 ** 6])
    def test_scan_violation_cap_matches_oracle(self, model4, max_violations):
        # the cap truncates the list only: the verdict and the extremes run
        # over all 4^6 words (144 of them violate)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "TOL_ZERO", 0.2)
            mp.setattr(fm, "MAX_VIOLATIONS", max_violations)
            report = fm.check_free_orbitals(model4, 3)
        M = np.abs(model4.gram).reshape(16, 16)
        want = brute_oracle.flat_scan(M, 4, 3, 0.2, fm.TOL_NONZERO,
                                      max_violations)
        assert _scan_fields(report) == want
        assert not report.passed
        assert len(report.violations) == min(max_violations, 144)

    def test_violations_beyond_the_recursion_limit(self):
        # every product of 1099 factors 0.5 underflows to 0, so each word
        # without a clash violates; the search runs on an explicit stack
        m = 1100
        model = fm.FlatModel(basis=None, n=2, gram=np.full((2,) * 4, 0.5, dtype=complex))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fm, "MAX_VIOLATIONS", 3)
            report = fm.check_free_orbitals(model, m, budget=4 ** m)
        assert not report.passed
        assert (report.min_nonzero, report.max_zero) == (0.0, 0.0)
        lead = ((1, 1),) * (m - 2)
        assert report.violations == [lead + ((1, 1), (1, 1)), lead + ((1, 1), (2, 2)),
                                     lead + ((2, 2), (1, 1))]
