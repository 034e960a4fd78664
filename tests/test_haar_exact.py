import contextlib
import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute_oracle
import degree4_oracle
import nc_oracle
import tensor_ops
from qperm import flat_model as fm
from qperm import haar_exact as hx
from qperm.errors import (DegreeTooHigh, DimensionTooSmall, EmptyMonomial,
                          IndexOutOfRange)


@contextlib.contextmanager
def quiet_boundary():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hx.BoundaryDimensionWarning)
        yield


class TestCanonicalize:
    @pytest.mark.parametrize("mono,n,tag", [
        ((((1, 2), (3, 4), (5, 6), (7, 8))), 8, "a7"),
        ((((1, 1), (2, 2), (1, 3), (2, 2))), 5, "a2"),
        ((((1, 1), (2, 2), (1, 1))), 5, "d2"),
        ((((1, 1),)), 5, "d1"),
        ((((2, 4), (3, 1))), 5, "d2"),
        ((((1, 1), (2, 3), (3, 2))), 5, "d3"),
        ((((1, 1), (2, 2), (1, 3))), 5, "zero"),
        ((((1, 1), (1, 2))), 5, "zero"),
        ((((1, 1), (1, 1), (2, 2))), 5, "d2"),
        ((((1, 1), (2, 2), (3, 3), (4, 2))), 5, "a6"),
        ((((1, 1), (2, 2), (3, 3), (2, 2))), 5, "a3"),
        ((((1, 1), (2, 2), (3, 3), (4, 1))), 5, "zero"),
    ])
    def test_examples(self, mono, n, tag):
        assert hx.canonicalize(mono, n) == tag

    def test_representatives_map_to_themselves(self):
        for tag, rep in hx.REPRESENTATIVES.items():
            assert hx.canonicalize(rep, 8) == tag

    def test_degree_too_high(self):
        word = tuple((t, t) for t in (1, 2, 3, 4, 5))
        with pytest.raises(DegreeTooHigh):
            hx.canonicalize(word, 5)

    def test_unreduced_high_degree_is_fine(self):
        word = ((1, 1), (1, 1), (2, 2), (2, 2), (1, 1), (1, 1))
        assert hx.canonicalize(word, 5) == "d2"

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            hx.canonicalize(((1, 6),), 5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMonomial):
            hx.canonicalize((), 5)

    def test_invariance_under_orbit_moves(self):
        rng = random.Random(424242)
        count = 0
        while count < 1000:
            m = rng.randint(1, 4)
            word = tuple((rng.randint(1, 4), rng.randint(1, 4)) for _ in range(m))
            base = hx.canonicalize(word, 8)
            # random relabeling on 8 symbols, rotation amount, antipode flip
            sigma = list(range(1, 9))
            tau = list(range(1, 9))
            rng.shuffle(sigma)
            rng.shuffle(tau)
            moved = tensor_ops.LabelAction(tuple(sigma), tuple(tau)).apply(word)
            rot = rng.randrange(m)
            moved = moved[rot:] + moved[:rot]
            if rng.random() < 0.5:
                moved = hx.antipode(moved)
            assert hx.canonicalize(moved, 8) == base
            count += 1


@pytest.fixture(scope="module")
def classified_words():
    """Every word over a 4x4 symbol grid, degrees 1..4, with its class tag.

    Any degree <= 4 word on at most 8 row and 8 column symbols relabels into
    this grid, so the sweep is exhaustive up to the relabeling invariance."""
    out = []
    for m in range(1, 5):
        for word in itertools.product(
                itertools.product(range(1, 5), repeat=2), repeat=m):
            out.append((word, hx.canonicalize(word, 8)))
    return out


class TestCompletenessAgainstOracle:
    """All 69904 words against the independent noncrossing-partition
    integrator: classification never fails and every value is exact."""

    @pytest.mark.parametrize("n", [5, 8])
    def test_all_words_classified_and_valued(self, n, classified_words):
        with quiet_boundary():
            for word, tag in classified_words:
                got = hx.class_value(tag, n)
                want = nc_oracle.haar_value(word, n)
                assert got == want, (word, tag, got, want)

    def test_zero_class_only_from_cyclic_reduction(self, classified_words):
        for word, tag in classified_words:
            assert (tag == "zero") == (hx.cyclic_reduce(word) is None)


class TestClosedForms:
    def test_degree_low_values(self):
        assert hx.haar_value_snplus(((2, 3),), 5) == Fraction(1, 5)
        assert hx.haar_value_snplus(((1, 1), (2, 2)), 5) == Fraction(1, 20)
        assert hx.haar_value_snplus(((1, 1), (2, 2), (3, 3)), 5) == Fraction(1, 60)

    def test_identity(self):
        assert hx.haar_value_snplus((), 7) == 1

    def test_degree4_values_n5(self):
        # r(5) = 5*4*11 = 220
        vals = {tag: hx.class_value(tag, 5) for tag in hx.DEGREE_CLASS_TAGS[4]}
        assert vals == {
            "a1": Fraction(1, 44), "a2": Fraction(1, 110),
            "a3": Fraction(3, 220), "a4": Fraction(-1, 220),
            "a5": Fraction(-1, 330), "a6": Fraction(1, 660),
            "a7": Fraction(1, 132),
        }

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_degree4_closed_forms_match_oracle(self, n):
        for tag in hx.DEGREE_CLASS_TAGS[4]:
            rep = hx.REPRESENTATIVES[tag]
            assert hx.class_value(tag, n) == nc_oracle.haar_value(rep, n)

    def test_n4_emits_boundary_warning(self):
        with pytest.warns(hx.BoundaryDimensionWarning):
            hx.haar_value_snplus(((1, 1), (2, 2), (1, 1), (2, 2)), 4)

    @pytest.mark.parametrize("tag,n", [("a7", 3), ("a6", 3), ("d3", 2),
                                       ("d3", 1), ("a1", 2), ("a1", 1)])
    def test_words_beyond_n_labels_rejected(self, tag, n):
        with pytest.raises(IndexOutOfRange):
            hx.class_value(tag, n)

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError):
            hx.class_value("b1", 5)

    def test_small_n_is_classical(self):
        # S_n^+ = S_n for n <= 3
        for mono in (((1, 1),), ((1, 1), (2, 2)), ((1, 2), (2, 1)),
                     ((1, 1), (2, 2), (1, 1), (2, 2))):
            for n in (2, 3):
                assert hx.haar_value_snplus(mono, n) == \
                    brute_oracle.brute_force_classical_haar(n, mono)
        with pytest.raises(DegreeTooHigh):
            hx.haar_value_snplus(((1, 1), (2, 2), (3, 3)) * 2, 3)


class TestDegree4System:
    @pytest.mark.parametrize("n", list(range(5, 31)))
    def test_solution_reproduces_closed_forms(self, n):
        sol = degree4_oracle.solve_degree4_system(n)
        assert sol.alpha4 == Fraction(-1, hx.degree4_denominator(n))
        for tag in hx.DEGREE_CLASS_TAGS[4]:
            assert sol.table[tag] == hx.class_value(tag, n)

    def test_affine_relation_a2_vs_a4_n5(self):
        sol = degree4_oracle.solve_degree4_system(5)
        const, slope = sol.affine["a2"]
        # among the reduced relations: a2 + (n-3) a4 = 0
        assert (const, slope) == (Fraction(0), Fraction(-2))

    def test_affine_a1_row_evaluation(self):
        # the a1 row is 1/(n(n-1)) + (n-2)(n-3) a4; at n=5 feeding it the
        # probe value -1/140 gives 1/20 - 6/140 = 1/140
        sol = degree4_oracle.solve_degree4_system(5)
        const, slope = sol.affine["a1"]
        assert const == Fraction(1, 20) and slope == Fraction(6)
        assert const + slope * Fraction(-1, 140) == Fraction(1, 140)

    def test_evaluate_consistency(self):
        sol = degree4_oracle.solve_degree4_system(6)
        assert sol.evaluate(sol.alpha4) == sol.table

    @pytest.mark.parametrize("n", list(range(4, 31)))
    def test_affine_table_matches_oracle(self, n):
        assert hx.degree4_affine(n) == degree4_oracle.solve_degree4_system(n).affine

    @pytest.mark.parametrize("n", list(range(5, 31)))
    def test_bounds_are_oracle_rows_on_the_window(self, n):
        window = (Fraction(-math.factorial(n - 4), math.factorial(n)), Fraction(0))
        affine = degree4_oracle.solve_degree4_system(n).affine
        expected = {tag: tuple(sorted(c + s * a4 for a4 in window))
                    for tag, (c, s) in affine.items()}
        assert hx.exotic_bounds(n).intervals == expected

    @pytest.mark.parametrize("n", list(range(5, 31)))
    def test_system_fidelity_closed_forms_satisfy_equations(self, n):
        equations = degree4_oracle.assemble_expansion_equations(n)
        assert len(equations) == 6
        for coeffs, rhs in equations:
            total = sum(mult * hx.class_value(tag, n)
                        for tag, mult in coeffs.items())
            assert total == rhs

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_row_completion_identities_directly(self, n):
        """The six proof expansions, summed term by term with exact values."""
        expansions = [
            (((1, 1), (2, 2), (1, 1)), "row", 2),
            (((1, 1), (2, 2), (1, 1)), "row", 3),
            (((1, 1), (2, 2), (1, 3)), "row", 2),
            (((1, 1), (2, 2), (1, 3)), "col", 2),
            (((1, 1), (2, 2), (1, 3)), "row", 3),
            (((1, 1), (2, 2), (3, 3)), "row", 4),
        ]
        for base, mode, fixed in expansions:
            total = Fraction(0)
            for k in range(1, n + 1):
                pair = (fixed, k) if mode == "row" else (k, fixed)
                total += hx.haar_value_snplus(base + (pair,), n)
            assert total == hx.haar_value_snplus(base, n), (base, mode, fixed)


class TestBounds:
    def test_a4_interval_n5(self):
        bounds = hx.exotic_bounds(5)
        assert bounds.intervals["a4"] == (Fraction(-1, 120), Fraction(0))

    def test_a7_interval_n5(self):
        bounds = hx.exotic_bounds(5)
        assert bounds.intervals["a7"] == (Fraction(1, 144), Fraction(1, 120))
        assert tensor_ops.bounds_contain(bounds, "a7", hx.class_value("a7", 5))

    @pytest.mark.parametrize("n", list(range(5, 31)))
    def test_values_strictly_inside(self, n):
        bounds = hx.exotic_bounds(n)
        for tag in hx.DEGREE_CLASS_TAGS[4]:
            lo, hi = bounds.intervals[tag]
            assert lo < hi
            assert tensor_ops.bounds_contain(bounds, tag, hx.class_value(tag, n)), (tag, n)

    def test_needs_n5(self):
        with pytest.raises(DimensionTooSmall):
            hx.exotic_bounds(4)

    def test_one_read_only_table_per_n(self):
        bounds = hx.exotic_bounds(7)
        assert hx.exotic_bounds(7) is bounds
        assert hx.exotic_bounds(8) is not bounds
        with pytest.raises(TypeError):
            bounds.intervals["a4"] = (Fraction(0), Fraction(1))
        assert bounds.intervals["a4"] == (Fraction(-1, 840), Fraction(0))

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_fix4_bound(self, n):
        bound = hx.fix4_exotic_bound(n)
        assert bound == 15
        assert bound < 16
        with quiet_boundary():
            assert hx.fix_moment(n, 4) < bound


class TestMoments:
    def test_catalan_sequence(self):
        assert [hx.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]

    @pytest.mark.parametrize("n", list(range(5, 11)))
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_fix_moments_are_catalan(self, n, k):
        assert hx.fix_moment(n, k) == hx.catalan(k)

    @pytest.mark.parametrize("n", [5, 8, 19, 30])
    def test_class_count_agrees_with_enumeration(self, n):
        for k in (2, 3, 4):
            if n <= 10:
                assert hx.fix_moment(n, k) == brute_oracle.fix_moment_literal(n, k)
            assert hx.fix_moment(n, k) == hx.catalan(k)

    @pytest.mark.parametrize("n", range(4, 10))
    @pytest.mark.parametrize("k", range(5))
    def test_matches_literal_enumeration(self, n, k):
        with quiet_boundary():
            got = hx.fix_moment(n, k)
        assert isinstance(got, Fraction)
        assert got == brute_oracle.fix_moment_literal(n, k)

    @pytest.mark.parametrize("n", [5, 6, 12, 30])
    def test_double_sum_is_six(self, n):
        assert hx.double_sum_identity(n) == 6

    def test_degree_cap(self):
        with pytest.raises(DegreeTooHigh):
            hx.fix_moment(5, 5)


def _pattern_sum(n, k, value, distinct_only_pairs=False):
    """Sum of value(tag) over the n^k diagonal words, each dense pattern
    classified afresh and counted n(n-1)...(n-d+1) times."""
    total = Fraction(0)
    for tup in itertools.product(range(k), repeat=k):
        if any(t > max(tup[:i], default=-1) + 1 for i, t in enumerate(tup)):
            continue                               # not a dense pattern
        if distinct_only_pairs and (tup[0] == tup[1] or tup[2] == tup[3]):
            continue
        tag = hx.canonicalize(tuple((t + 1, t + 1) for t in tup), 4)
        if tag != hx.ZERO:
            total += math.perm(n, len(set(tup))) * value(tag)
    return total


class TestDiagonalSums:
    """The diagonal pattern classes are built once and reused for every n."""

    def test_matches_fresh_classification(self):
        assert hx._diagonal_classes(4, False) is hx._diagonal_classes(4, False)
        with quiet_boundary():
            for n in range(4, 61):
                def value(tag):
                    return hx.class_value(tag, n)

                for k in range(1, 5):
                    assert hx.fix_moment(n, k) == _pattern_sum(n, k, value), (n, k)
                assert hx.double_sum_identity(n) == _pattern_sum(n, 4, value, True), n
                if n >= 5:
                    bounds = hx.exotic_bounds(n).intervals
                    assert hx.fix4_exotic_bound(n) == _pattern_sum(
                        n, 4, lambda tag: bounds[tag][1] if tag in bounds else value(tag)), n


class TestClassicalOracle:
    def test_values(self):
        for word, value in ((((1, 1),), Fraction(1, 5)),
                            (((1, 1), (2, 2), (3, 3)), Fraction(1, 60))):
            assert hx.classical_haar(5, word) == value
            assert brute_oracle.brute_force_classical_haar(5, word) == value

    def test_classical_reduces_the_alternating_word(self):
        # classically u11 u22 u11 u22 = u11 u22; differs from the quantum value
        word = ((1, 1), (2, 2), (1, 1), (2, 2))
        classical = hx.classical_haar(5, word)
        assert classical == Fraction(1, 20)
        assert classical == brute_oracle.brute_force_classical_haar(5, word)
        assert classical != hx.haar_value_snplus(word, 5)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_degree_le3_agreement(self, n):
        for m in (1, 2, 3):
            for itup in itertools.permutations(range(1, n + 1), m):
                for jtup in itertools.permutations(range(1, n + 1), m):
                    mono = tuple(zip(itup, jtup))
                    value = hx.haar_value_snplus(mono, n)
                    assert brute_oracle.brute_force_classical_haar(n, mono) == value
                    assert hx.classical_haar(n, mono) == value

    def test_cap(self):
        # the closed form has no dimension cap
        assert hx.classical_haar(9, ((1, 1),)) == Fraction(1, 9)
        word = tuple((t, t) for t in range(1, 10))
        assert hx.classical_haar(9, word) == Fraction(1, 362880)
        assert hx.classical_haar(30, ((1, 2), (2, 1))) == Fraction(1, 30 * 29)

    def test_no_factorials(self, monkeypatch):
        # falling factorials, not quotients of factorials: the values do not
        # change when math.factorial is unavailable
        def values():
            with quiet_boundary():
                return ([hx.classical_haar(n, w) for n in (5, 12, 60, 100000)
                         for w in (((1, 1),), ((1, 2), (2, 3), (4, 4)))],
                        [hx.fix_moment(n, k) for n in (4, 5, 12, 60) for k in range(5)],
                        [hx.exotic_bounds(n).intervals for n in (5, 12, 60)],
                        [hx.haar_table_dict(n) for n in (5, 12, 60, 100000)])

        expected = values()

        def refuse(k):
            raise AssertionError("math.factorial called")

        monkeypatch.setattr(math, "factorial", refuse)
        hx.exotic_bounds.cache_clear()           # build the tables again
        assert values() == expected


class TestLabelAction:
    def test_apply(self):
        act = tensor_ops.LabelAction(sigma=(3, 2, 5, 4, 1), tau=(2, 1, 8, 4, 5, 6, 7, 3))
        assert act.apply(((1, 2), (3, 3))) == ((3, 1), (5, 8))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            tensor_ops.LabelAction(sigma=(1, 1, 3), tau=(1, 2, 3))


class TestBoundaryReport:
    def test_both_sides_positive(self):
        report = hx.n4_boundary_report()
        assert report.model_trace == Fraction(1, 81)
        assert report.formula_value == Fraction(1, 20)
        assert report.consistent


class TestTableDump:
    def test_shape(self):
        data = hx.haar_table_dict(6)
        assert data["n"] == 6
        assert set(data["classes"]) == set(hx.DEGREE_CLASS_TAGS[4])
        entry = data["classes"]["a7"]
        value = Fraction(*entry["value"])
        assert value == hx.class_value("a7", 6)
        lo = Fraction(*entry["bounds"][0])
        hi = Fraction(*entry["bounds"][1])
        assert lo < value < hi


def _word(n, max_len):
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    return st.lists(pair, min_size=1, max_size=max_len).map(tuple)


def _perm(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(word=_word(8, 4), sigma=_perm(8), tau=_perm(8),
           rot=st.integers(0, 3), flip=st.booleans())
    def test_canonicalize_invariant_under_orbit_moves(self, word, sigma, tau, rot, flip):
        moved = tensor_ops.LabelAction(sigma, tau).apply(word)
        rot %= len(word)
        moved = moved[rot:] + moved[:rot]
        if flip:
            moved = hx.antipode(moved)
        assert hx.canonicalize(moved, 8) == hx.canonicalize(word, 8)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(5, 12).flatmap(lambda n: st.tuples(st.just(n), _word(n, 4))))
    def test_haar_value_matches_nc_oracle(self, case):
        n, word = case
        reduced = fm.reduce_monomial(word)
        assume(reduced)
        assert hx.haar_value_snplus(reduced, n) == nc_oracle.haar_value(reduced, n)
