"""Acceptance suite: one test (or a small group of sub-tests) per criterion,
each printing a PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; tolerances are pinned in the assertions.

Criteria 6 and 9 check the exact degree-4 Haar table of S_N^+.  Its
denominator is r(N) = N(N-1)(N^2-3N+1):

    a1 = (2N-5)/r   a2 = (N-3)/r   a3 = (N-2)/r   a4 = -1/r
    a5 = -(N-3)/((N-2) r)   a6 = 1/((N-2) r)   a7 = N/((N-2) r)

An earlier target table, built on q(N) = N(N-1)(N^2-4N+2), is wrong, and the
sub-tests 6c, 6d and 9b record where and by how much:

* The row-completion identity sum_k h(u11 u22 u33 u_4k) = h(u11 u22 u33)
  reads a6 + (N-3) a7 = 1/(N(N-1)(N-2)).  It forces the parametrization row
  a7 = (N-4)!/N! + a4/((N-2)(N-3)); the target slope -1/(N-3) breaks it for
  every a4 != 0 (6c).
* The moment identity h(fix^4) = 14 then pins a4 = -1/r(N), not -1/q(N).
  The q table differs from the oracle in all seven classes and breaks the
  row-completion identity by exactly (N-1)/((N-2) q(N)), e.g. 1/105 at N = 5
  and 1/336 at N = 6 (6d).
* At N = 4 the table gives h(u11 u22 u11 u22) = 1/20, not the target 0.  With
  z = u22 u11 the word is h((z* z)^2); z != 0 since the flat-model trace is
  (1/3)^4 = 1/81, and the Haar state of the coamenable S_4^+ is faithful, so
  the value must be strictly positive (9b).

Expected values in these sub-tests are closed forms written here or values of
the independent noncrossing-partition integrator in tests/nc_oracle.py, never
program output, and every comparison is an exact Fraction equality.  The r
table is also reproduced by the Cesaro limit of the 4x4 flat-model trace
state to 1e-9 (criterion 8 machinery, test_convolution_probe.py).
"""

import itertools
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import brute_oracle
import degree4_oracle
import nc_oracle
import tensor_ops
from qperm import convolution_probe as cp
from qperm import flat_model as fm
from qperm import haar_exact as hx
from qperm import magic_bases as mb


def check(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def make_basis(n):
    return mb.build_pauli_basis_4() if n == 4 else mb.build_fourier_basis(n)


def make_model(n):
    return fm.model_from_basis(make_basis(n))


# --- criterion 1: magic-basis validity ----------------------------------------

def test_criterion_1_magic_basis_validity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(4, 13):
        report = mb.verify_magic(make_basis(n))
        assert report.magic_ok, n
        worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    check(1, worst < 1e-12 and elapsed < 1.0,
          f"N=4..12 max orthonormality residual {worst:.2e} in {elapsed:.2f}s")


# --- criterion 2: suitable noncommutativity ------------------------------------

def test_criterion_2_commutation_pattern_and_case_windows():
    for n in range(4, 13):
        model = make_model(n)
        pattern = fm.commutation_pattern(model)
        assert np.array_equal(pattern, fm.expected_commutation_pattern(n)), n
        if n == 4:
            continue
        G = mb.gram_table(model.basis)
        for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
            case = mb.fourier_case((i, j), (k, l), n)
            g = complex(G[i - 1, j - 1, k - 1, l - 1])
            if case == "resonant":
                assert abs(g.imag) < 1e-12
                assert 1 - 4 / n - 1e-12 <= g.real < 1, (n, i, j, k, l)
            elif case == "generic":
                assert 1e-12 < abs(g) <= 4 / n + 1e-12, (n, i, j, k, l)
    check(2, True, "pattern == [i=k or j=l] for N=4..12; resonant values in "
                   "[1-4/N, 1), generic magnitudes in (0, 4/N] within 1e-12")


# --- criterion 3: free orbitals -------------------------------------------------

def test_criterion_3_free_orbital_scans():
    cases = [(n, m) for n in (4, 5, 6) for m in (1, 2, 3, 4)]
    cases += [(4, 5), (5, 5)]
    start = time.perf_counter()
    worst_ratio = None
    for n, m in cases:
        report = fm.check_free_orbitals(make_model(n), m)
        assert report.passed, (n, m)
        ratio = report.gap_ratio()
        if ratio is not None:
            assert ratio >= 1e3, (n, m, ratio)
            worst_ratio = ratio if worst_ratio is None else min(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    check(3, True, f"{len(cases)} exhaustive scans pass, zero set == trivial "
                   f"set, min gap ratio {worst_ratio:.1e}, {elapsed:.1f}s")


# --- criterion 4: classical contrast -------------------------------------------

def test_criterion_4_classical_contrast():
    cm = fm.classical_model(4)
    assert fm.check_free_orbitals_classical(cm, 1).passed
    assert fm.check_free_orbitals_classical(cm, 2).passed
    witness = fm.parse_monomial("1:3,2:2,1:1")
    ok = fm.classical_zero(cm, witness) and not fm.is_trivially_zero(witness)
    check(4, ok, "classical N=4 has free 1- and 2-orbitals; witness "
                 "1:3,2:2,1:1 vanishes without a consecutive clash")


# --- criterion 5: degree <= 3 oracle equality -----------------------------------

def test_criterion_5_degree_le3_oracle_equality():
    start = time.perf_counter()
    for n in (5, 6, 7):
        for m in (1, 2, 3):
            for itup in itertools.permutations(range(1, n + 1), m):
                for jtup in itertools.permutations(range(1, n + 1), m):
                    mono = tuple(zip(itup, jtup))
                    value = hx.haar_value_snplus(mono, n)
                    assert brute_oracle.brute_force_classical_haar(n, mono) == value, mono
                    assert hx.classical_haar(n, mono) == value, mono
    elapsed = time.perf_counter() - start
    check(5, elapsed < 60.0,
          f"S_N enumeration == closed form == 1/N, 1/(N(N-1)), 1/(N(N-1)(N-2)) for all "
          f"distinct-index words, N=5..7, exact, {elapsed:.1f}s")


# --- criterion 6: degree-4 exactness --------------------------------------------

def _target_q(n):
    return n * (n - 1) * (n * n - 4 * n + 2)


def _r(n):
    return n * (n - 1) * (n * n - 3 * n + 1)


# The seven class representatives, as listed in the haar_exact docstring.
_REPRESENTATIVES = {
    "a1": ((1, 1), (2, 2), (1, 1), (2, 2)),
    "a2": ((1, 1), (2, 2), (1, 1), (2, 3)),
    "a3": ((1, 1), (2, 2), (1, 1), (3, 3)),
    "a4": ((1, 1), (2, 2), (1, 3), (2, 4)),
    "a5": ((1, 1), (2, 2), (1, 3), (3, 2)),
    "a6": ((1, 1), (2, 2), (1, 3), (3, 4)),
    "a7": ((1, 1), (2, 2), (3, 3), (4, 4)),
}


def _r_table(n):
    r = _r(n)
    return {
        "a1": Fraction(2 * n - 5, r),
        "a2": Fraction(n - 3, r),
        "a3": Fraction(n - 2, r),
        "a4": Fraction(-1, r),
        "a5": Fraction(-(n - 3), (n - 2) * r),
        "a6": Fraction(1, (n - 2) * r),
        "a7": Fraction(n, (n - 2) * r),
    }


def _q_table(n):
    q = _target_q(n)
    return {
        "a1": Fraction(n - 4, q),
        "a2": Fraction(n - 3, q),
        "a3": Fraction(n * n - 5 * n + 5, (n - 2) * q),
        "a4": Fraction(-1, q),
        "a5": Fraction(-(n - 3), (n - 2) * q),
        "a6": Fraction(1, (n - 2) * q),
        "a7": Fraction(n, (n - 2) * q),
    }


def _row_completion_defect(a6, a7, n):
    """sum_k h(u11 u22 u33 u_4k) - h(u11 u22 u33).

    The term is 0 for k = 1, 3 (a column clash), class a6 for k = 2 and
    class a7 for k = 4 and k >= 5, so the sum is a6 + (N-3) a7."""
    return a6 + (n - 3) * a7 - Fraction(1, n * (n - 1) * (n - 2))


def test_criterion_6a_system_assembles_and_solves():
    for n in range(5, 31):
        sol = degree4_oracle.solve_degree4_system(n)
        assert sol.evaluate(sol.alpha4) == sol.table
        assert set(sol.table) == set(hx.DEGREE_CLASS_TAGS[4])
    check("6a", True, "six completion identities assemble to a rank-6 system "
                      "with a one-parameter solution for N=5..30")


def test_criterion_6b_parametrization_rows_a1_a2_a3_a5_a6():
    for n in range(5, 31):
        affine = degree4_oracle.solve_degree4_system(n).affine
        d2 = Fraction(1, n * (n - 1))
        d3 = Fraction(1, n * (n - 1) * (n - 2))
        assert affine["a1"] == (d2, Fraction((n - 2) * (n - 3)))
        assert affine["a2"] == (Fraction(0), Fraction(-(n - 3)))
        assert affine["a3"] == (d3, Fraction(n - 3, n - 2))
        assert affine["a5"] == (Fraction(0), Fraction(n - 3, n - 2))
        assert affine["a6"] == (Fraction(0), Fraction(-1, n - 2))
    check("6b", True, "assembled rows match the target parametrization for "
                      "a1, a2, a3, a5, a6 (N=5..30)")


def test_criterion_6c_parametrization_row_a7_target():
    """Row: a7 = (N-4)!/N! + a4/((N-2)(N-3)).

    The row-completion identity sum_k h(u11 u22 u33 u_4k) = h(u11 u22 u33)
    reads a6 + (N-3) a7 = 1/(N(N-1)(N-2)); with the a6 row (0, -1/(N-2)) it
    forces this a7 row.  The earlier target slope -1/(N-3) leaves a defect
    of -(N-1)/(N-2) * a4 in that identity, nonzero for every a4 != 0."""
    for n in (5, 6, 7):
        values = {k: nc_oracle.haar_value(((1, 1), (2, 2), (3, 3), (4, k)), n)
                  for k in range(1, n + 1)}
        assert values[1] == values[3] == 0, n
        assert values[2] == nc_oracle.haar_value(_REPRESENTATIVES["a6"], n), n
        a7 = nc_oracle.haar_value(_REPRESENTATIVES["a7"], n)
        assert all(values[k] == a7 for k in range(4, n + 1)), n
        assert sum(values.values()) == Fraction(1, n * (n - 1) * (n - 2)), n
    for n in range(5, 31):
        affine = degree4_oracle.solve_degree4_system(n).affine
        row = (Fraction(math.factorial(n - 4), math.factorial(n)),
               Fraction(1, (n - 2) * (n - 3)))
        assert affine["a7"] == row, (n, affine["a7"], row)
        for a4 in (Fraction(0), Fraction(1)):   # the defect is affine in a4
            a6 = -a4 / (n - 2)
            assert _row_completion_defect(a6, row[0] + row[1] * a4, n) == 0, n
            assert _row_completion_defect(a6, row[0] - a4 / (n - 3), n) == \
                -(n - 1) * a4 / (n - 2), n
    check("6c", True,
          "a7 row = ((N-4)!/N!, 1/((N-2)(N-3))) for N=5..30, the row that "
          "satisfies sum_k h(u11 u22 u33 u_4k) = h(u11 u22 u33); the earlier "
          "target slope -1/(N-3) breaks it by -(N-1)/(N-2) * a4")


def test_criterion_6d_closed_forms_at_target_alpha4():
    """Pinning a4 by h(fix^4) = 14 gives a4 = -1/r(N), r(N) = N(N-1)(N^2-3N+1),
    and the table (2N-5)/r, (N-3)/r, (N-2)/r, -1/r, -(N-3)/((N-2)r),
    1/((N-2)r), N/((N-2)r).  The noncrossing-partition oracle reproduces it
    for N = 5..8.  The earlier target table on q(N) = N(N-1)(N^2-4N+2)
    differs from the oracle in all seven classes and breaks
    sum_k h(u11 u22 u33 u_4k) = h(u11 u22 u33) by (N-1)/((N-2) q(N))."""
    for n in range(5, 31):
        sol = degree4_oracle.solve_degree4_system(n)
        a4 = Fraction(-1, _r(n))
        assert sol.alpha4 == a4, (n, sol.alpha4)
        assert sol.evaluate(a4) == _r_table(n), n
        q_table = _q_table(n)
        assert _row_completion_defect(q_table["a6"], q_table["a7"], n) == \
            Fraction(n - 1, (n - 2) * _target_q(n)), n
    for n in (5, 6, 7, 8):
        r_table, q_table = _r_table(n), _q_table(n)
        for tag, rep in _REPRESENTATIVES.items():
            oracle = nc_oracle.haar_value(rep, n)
            assert oracle == r_table[tag], (n, tag, oracle)
            assert oracle != q_table[tag], (n, tag)
    check("6d", True,
          "a4 = -1/r(N) and the r(N) table for N=5..30, equal to the "
          "noncrossing oracle for N=5..8; the q(N) table breaks the "
          "row-completion identity by (N-1)/((N-2) q(N)), 1/105 at N=5")


def test_criterion_6e_values_strictly_inside_bounds():
    for n in range(5, 31):
        bounds = hx.exotic_bounds(n)
        for tag in hx.DEGREE_CLASS_TAGS[4]:
            assert tensor_ops.bounds_contain(bounds, tag, hx.class_value(tag, n)), (n, tag)
    check("6e", True, "all seven exact values strictly inside the "
                      "exotic-bound intervals for N=5..30")


def test_criterion_6f_moment_identities():
    for n in range(5, 31):
        assert hx.fix_moment(n, 4) == 14, n
        assert hx.double_sum_identity(n) == 6, n
    check("6f", True, "h(fix^4) = 14 by class counting and the double-sum "
                      "identity = 6, exactly, for N=5..30")


# --- criterion 7: Catalan moments ----------------------------------------------

def test_criterion_7_catalan_moments():
    assert [hx.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    for n in range(5, 11):
        for k in range(5):
            assert hx.fix_moment(n, k) == hx.catalan(k), (n, k)
    check(7, True, "fix_moment(N,k) = C_k for k<=4, N=5..10; "
                   "catalan gives 1,1,2,5,14,42")


# --- criterion 8: probe soundness -----------------------------------------------

def test_criterion_8_probe_soundness():
    start = time.perf_counter()
    action_by_n = {
        4: tensor_ops.LabelAction(sigma=(2, 1, 4, 3), tau=(3, 4, 1, 2)),
        5: tensor_ops.LabelAction(sigma=(2, 1, 4, 3, 5), tau=(3, 4, 1, 2, 5)),
    }
    for n, degrees in ((4, (1, 2, 3)), (5, (1, 2, 3, 4))):
        model = make_model(n)
        for m in degrees:
            T = cp.trace_state(model, m)
            assert tensor_ops.row_sum_error(T) < 1e-10, (n, m)
            assert tensor_ops.row_sum_error(tensor_ops.convolve(T, T)) < 1e-10, (n, m)
            res = cp.cesaro_limit(T, cp.ProbeConfig())
            L = tensor_ops.limit_of(res)
            assert tensor_ops.row_sum_error(L) < 1e-10, (n, m)
            if m == 1:
                assert np.abs(L.entries - 1.0 / n).max() < 1e-12, (n, m)
            assert np.abs(L.entries @ T.entries - L.entries).max() < 1e-8, (n, m)
            assert np.abs(L.entries - L.rotated().entries).max() < 1e-8, (n, m)
            act = action_by_n[n]
            covariance = np.abs(
                tensor_ops.limit_of(cp.cesaro_limit(tensor_ops.permuted(T, act),
                                                    cp.ProbeConfig())).entries
                - tensor_ops.permuted(L, act).entries).max()
            assert covariance < 1e-8, (n, m)
    elapsed = time.perf_counter() - start
    check(8, elapsed < 600.0,
          f"degree-1 limit = 1/N at 1e-12; row sums at 1e-10; L*T = L, "
          f"traciality and label-permutation residuals < 1e-8 for N=4 m<=3 "
          f"and N=5 m<=4; {elapsed:.1f}s")


# --- criterion 9: N = 4 boundary diagnostic --------------------------------------

def test_criterion_9a_both_sides_reported():
    report = hx.n4_boundary_report()
    ok = (report.model_trace == Fraction(1, 81)
          and isinstance(report.formula_value, Fraction)
          and report.model_trace > 0)
    check("9a", ok, f"diagnostic reports formula value {report.formula_value} "
                    f"and flat-model trace {report.model_trace} side by side")


def test_criterion_9b_boundary_zero_target():
    """At N = 4, h(u11 u22 u11 u22) = 1/20, not the earlier target 0.

    With z = u22 u11 the word is h((z* z)^2).  The flat-model trace
    (1/3)^4 = 1/81 shows z != 0, and S_4^+ is coamenable, so its Haar state
    is faithful and the value must be strictly positive.  The noncrossing
    oracle gives 1/20 independently."""
    report = hx.n4_boundary_report()
    oracle = nc_oracle.haar_value(_REPRESENTATIVES["a1"], 4)
    ok = (report.formula_value == oracle == Fraction(1, 20)
          and report.formula_value > 0
          and report.model_trace == Fraction(1, 81)
          and report.consistent is True)
    check("9b", ok,
          f"h(u11 u22 u11 u22) at N=4 = {report.formula_value} (oracle "
          f"{oracle}, expected 1/20 > 0 by faithfulness of the Haar state of "
          f"the coamenable S_4^+); flat-model trace {report.model_trace}; "
          f"consistency flag = {report.consistent}")
