import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro_oracle
from qperm import convolution_probe as cp
from qperm import flat_model as fm
from qperm import haar_exact as hx
from qperm import magic_bases as mb
from qperm.errors import MemoryCap, ShapeMismatch


@pytest.fixture(scope="module")
def model4():
    return fm.model_from_basis(mb.build_pauli_basis_4())


@pytest.fixture(scope="module")
def model5():
    return fm.model_from_basis(mb.build_fourier_basis(5))


class TestTraceState:
    def test_degree_one_is_uniform(self, model4):
        T = cp.trace_state(model4, 1)
        assert np.abs(T.entries - 0.25).max() == 0.0

    def test_degree_two_entry(self, model4):
        T = cp.trace_state(model4, 2)
        # tr(v11 v22)/4 = |<xi11, xi22>|^2 / 4 = (1/3)^2 / 4
        assert abs(T.entry((1, 2), (1, 2)) - 1 / 36) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_row_sums(self, model5, m):
        assert cp.trace_state(model5, m).row_sum_error() < 1e-11

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_marginal_consistency(self, model5, m):
        T = cp.trace_state(model5, m)
        smaller = cp.trace_state(model5, m - 1)
        assert np.abs(T.marginalized().entries - smaller.entries).max() < 1e-10

    def test_memory_cap(self, model5):
        with pytest.raises(MemoryCap):
            cp.trace_state(model5, 6, memory_cap=2 * 2 ** 30)

    def test_matches_literal_traces(self, model4):
        T = cp.trace_state(model4, 2)
        for itup in [(1, 2), (3, 4), (2, 2)]:
            for ktup in [(1, 2), (4, 1), (3, 3)]:
                word = tuple(zip(itup, ktup))
                prod = model4.projection(*word[0])
                for pair in word[1:]:
                    prod = prod @ model4.projection(*pair)
                want = np.trace(prod) / 4
                assert abs(T.entry(itup, ktup) - want) < 1e-13


class TestConvolve:
    def test_uniform_is_idempotent(self, model4):
        T = cp.trace_state(model4, 1)
        C = cp.convolve(T, T)
        assert np.abs(C.entries - T.entries).max() < 1e-14

    def test_row_sums_preserved(self, model5):
        T = cp.trace_state(model5, 2)
        assert cp.convolve(T, T).row_sum_error() < 1e-10

    def test_matches_definition_sum(self, model4):
        T = cp.trace_state(model4, 2)
        C = cp.convolve(T, T)
        n2 = 16
        direct = np.array([[sum(T.entries[a, k] * T.entries[k, b]
                                for k in range(n2)) for b in range(n2)]
                           for a in range(n2)])
        assert np.abs(C.entries - direct).max() < 1e-12

    def test_shape_mismatch(self, model4, model5):
        with pytest.raises(ShapeMismatch):
            cp.convolve(cp.trace_state(model4, 2), cp.trace_state(model5, 2))

    def test_associativity(self, model5):
        T = cp.trace_state(model5, 2)
        A = cp.convolve(T, T)
        B = cp.convolve(T, A)
        left = cp.convolve(cp.convolve(A, B), T)
        right = cp.convolve(A, cp.convolve(B, T))
        assert np.abs(left.entries - right.entries).max() < 1e-10


class TestCesaroLimit:
    def test_degree_one_immediate(self, model4):
        T = cp.trace_state(model4, 1)
        res = cp.cesaro_limit(T)
        assert res.converged
        assert np.abs(res.limit.entries - 0.25).max() < 1e-12

    def test_idempotent_input_is_fixed(self, model4):
        T = cp.trace_state(model4, 1)
        res = cp.cesaro_limit(T)
        assert res.iterations <= 4
        assert res.fixed_dim == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_limit_invariance(self, model4, m):
        T = cp.trace_state(model4, m)
        res = cp.cesaro_limit(T)
        assert res.converged
        L = res.limit.entries
        assert np.abs(L @ T.entries - L).max() < 1e-8
        assert np.abs(L.sum(axis=1) - 1).max() < 1e-10

    def test_traciality_of_limit(self, model5):
        res = cp.cesaro_limit(cp.trace_state(model5, 3))
        rot = res.limit.rotated()
        assert np.abs(res.limit.entries - rot.entries).max() < 1e-8

    def test_iteration_cap_reports_not_converged(self):
        # an eigenvalue 1e-7 below 1 is kept (within sqrt(tol)) but not
        # certified (further than tol): the fixed space is ambiguous
        res = cp.cesaro_limit(tiny_gap_tensor(4, 2))
        assert res.converged is False
        assert res.fixed_dim == 2

    def test_label_permutation_covariance(self, model4):
        act = hx.LabelAction(sigma=(2, 1, 4, 3), tau=(3, 4, 1, 2))
        T = cp.trace_state(model4, 2)
        limit_then_permute = cp.cesaro_limit(T).limit.permuted(act)
        permute_then_limit = cp.cesaro_limit(T.permuted(act)).limit
        assert np.abs(limit_then_permute.entries
                      - permute_then_limit.entries).max() < 1e-8

    def test_fixed_space_mode_agrees(self, model4):
        T = cp.trace_state(model4, 2)
        doubling = cesaro_oracle.doubling_limit(T.entries)
        spectral = cp.cesaro_limit(T, cp.ProbeConfig(method="fixed_space"))
        assert np.abs(doubling - spectral.limit.entries).max() < 1e-10

    def test_literal_mode_agrees(self, model4):
        # the eigenvalues of T other than 1 lie in [-1/3, 1/3], so the
        # average of r powers is within 1/(2r) of the limit
        T = cp.trace_state(model4, 2)
        res = cp.cesaro_limit(T)
        assert res.converged
        literal = cesaro_oracle.literal_average(T.entries, 10_000)
        assert np.abs(literal - res.limit.entries).max() < 1e-4

    def test_unstable_squaring_is_guarded(self):
        # n = 6 has a power sequence whose repeated squaring amplifies noise;
        # the spectral limit takes no powers and must stay accurate
        model6 = fm.model_from_basis(mb.build_fourier_basis(6))
        T = cp.trace_state(model6, 2)
        res = cp.cesaro_limit(T)
        L = res.limit.entries
        assert res.converged
        assert np.abs(L @ T.entries - L).max() < 1e-8
        assert np.isfinite(L).all()


def tiny_gap_tensor(n, m, eps=1e-7):
    """Hermitian row-stochastic tensor with spectrum 1, 1 - eps, 1/2, 0, ...

    The constant vector spans the eigenvalue-1 line, so rows sum to 1."""
    size = n ** m
    rng = np.random.default_rng(0)
    basis = np.column_stack([np.ones(size), rng.standard_normal((size, size - 1))])
    Q, _ = np.linalg.qr(basis)
    spectrum = np.zeros(size)
    spectrum[:3] = (1.0, 1.0 - eps, 0.5)
    return cp.StateTensor(n, m, ((Q * spectrum) @ Q.T).astype(complex))


_PROPERTY_MODELS = {4: fm.model_from_basis(mb.build_pauli_basis_4()),
                    5: fm.model_from_basis(mb.build_fourier_basis(5))}
_PROPERTY_CASES = [(n, m) for n in (4, 5) for m in (1, 2, 3)]


@st.composite
def probe_cases(draw):
    """A model size, a degree m <= 3 and a random label action."""
    n, m = draw(st.sampled_from(_PROPERTY_CASES))
    sigma = tuple(draw(st.permutations(range(1, n + 1))))
    tau = tuple(draw(st.permutations(range(1, n + 1))))
    return n, m, hx.LabelAction(sigma=sigma, tau=tau)


class TestFixedSpaceProperties:
    """The limit is the orthogonal projector onto the fixed space of T."""

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_projector_properties(self, case):
        n, m, act = case
        T = cp.trace_state(_PROPERTY_MODELS[n], m).permuted(act)
        res = cp.cesaro_limit(T)
        P = res.limit.entries
        assert res.converged
        assert np.abs(P - P.conj().T).max() < 1e-12
        assert np.abs(P @ P - P).max() < 1e-12
        assert round(np.trace(P).real) == res.fixed_dim == hx.catalan(m)
        assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(P @ T.entries - P).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_label_covariance(self, case):
        n, m, act = case
        T = cp.trace_state(_PROPERTY_MODELS[n], m)
        limit_then_permute = cp.cesaro_limit(T).limit.permuted(act)
        permute_then_limit = cp.cesaro_limit(T.permuted(act)).limit
        assert np.abs(limit_then_permute.entries
                      - permute_then_limit.entries).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_matches_doubling_oracle(self, case):
        n, m, act = case
        T = cp.trace_state(_PROPERTY_MODELS[n], m).permuted(act)
        reference = cesaro_oracle.doubling_limit(T.entries)
        assert np.abs(cp.cesaro_limit(T).limit.entries - reference).max() < 1e-10


class TestFixMomentEstimates:
    def test_degree_one_estimate(self, model5):
        limit = cp.cesaro_limit(cp.trace_state(model5, 1)).limit
        est, imag = cp.estimate_fix_moments(limit)
        assert abs(est - 1.0) < 1e-12
        assert imag < 1e-12
        assert abs(limit.entry((2,), (3,)) - 1 / 5) < 1e-12


@pytest.fixture(scope="module")
def report4(model4):
    return cp.inner_faithfulness_report(model4, cp.ProbeConfig(max_degree=4))


@pytest.fixture(scope="module")
def report5(model5):
    return cp.inner_faithfulness_report(model5, cp.ProbeConfig(max_degree=4))


class TestProbeReport:
    def test_degrees_complete(self, report4):
        assert [d.m for d in report4.degrees] == [1, 2, 3, 4]
        assert all(d.converged for d in report4.degrees)

    def test_n4_matches_catalan_through_degree_4(self, report4):
        for d in report4.degrees:
            assert d.catalan_residual < 1e-8, d.m
            assert d.fix_moment_imag < 1e-8
        assert report4.verdict.startswith("consistent with inner faithfulness")

    def test_n4_class_residuals_tiny(self, report4):
        degree4 = report4.degrees[-1]
        for tag, info in degree4.class_residuals.items():
            assert info["residual"] < 1e-8, tag

    def test_n5_deviates_at_degree_4(self, report5):
        by_m = {d.m: d for d in report5.degrees}
        assert by_m[1].catalan_residual < 1e-8
        assert by_m[2].catalan_residual < 1e-8
        assert by_m[3].catalan_residual < 1e-8
        # the limit state is a Haar state of a proper quantum subgroup: its
        # fourth moment lands on the integer 15 instead of C4 = 14
        assert abs(by_m[4].fix_moment_estimate - 15.0) < 1e-6
        assert report5.verdict.startswith("deviates at degree 4")

    def test_soundness_fields(self, report5):
        for d in report5.degrees:
            assert d.row_sum_error < 1e-10
            assert d.traciality_residual < 1e-8
            assert d.invariance_residual < 1e-8
        assert [d.fixed_space_dim for d in report5.degrees] == [1, 2, 5, 15]
        assert abs(report5.degrees[3].spectral_gap - (1 - 1 / math.sqrt(5))) < 1e-9

    def test_json_round_trip(self, report4):
        payload = json.dumps(report4.to_dict())
        parsed = json.loads(payload)
        assert json.dumps(parsed) == json.dumps(json.loads(json.dumps(parsed)))
        assert parsed["n"] == 4
        assert len(parsed["degrees"]) == 4

    def test_csv(self, report4):
        lines = report4.fix_moment_csv().strip().splitlines()
        assert lines[0] == "m,estimate,imag,catalan,residual"
        assert len(lines) == 5

    def test_max_iterations_one_is_data_not_error(self, model4, monkeypatch):
        real_trace_state = cp.trace_state

        def trace_state(model, m, memory_cap):
            return tiny_gap_tensor(4, 2) if m == 2 else real_trace_state(model, m, memory_cap)

        monkeypatch.setattr(cp, "trace_state", trace_state)
        report = cp.inner_faithfulness_report(model4, cp.ProbeConfig(max_degree=2))
        assert report.degrees[-1].converged is False
        assert report.verdict.startswith("inconclusive at degree 2")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cp.ProbeConfig(max_degree=0)
        with pytest.raises(ValueError):
            cp.ProbeConfig(tol_converge=0.0)

    def test_unknown_method(self, model4):
        T = cp.trace_state(model4, 1)
        with pytest.raises(ValueError):
            cp.cesaro_limit(T, cp.ProbeConfig(method="nope"))
