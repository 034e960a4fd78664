import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cesaro_oracle
import tensor_ops
from qperm import convolution_probe as cp
from qperm import flat_model as fm
from qperm import haar_exact as hx
from qperm import label_orbits as lo
from qperm import magic_bases as mb
from qperm.errors import MemoryCap


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
        assert abs(tensor_ops.entry(T, (1, 2), (1, 2)) - 1 / 36) < 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_row_sums(self, model5, m):
        assert tensor_ops.row_sum_error(cp.trace_state(model5, m)) < 1e-11

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_marginal_consistency(self, model5, m):
        T = cp.trace_state(model5, m)
        smaller = cp.trace_state(model5, m - 1)
        assert np.abs(tensor_ops.marginalized(T).entries - smaller.entries).max() < 1e-10

    def test_memory_cap(self, model5):
        with pytest.raises(MemoryCap):
            cp.trace_state(model5, 6, memory_cap=2 * 2 ** 30)

    @pytest.mark.parametrize("n,m", [(5, 1), (5, 2), (5, 3), (5, 4), (6, 3),
                                     (4, 1), (4, 2), (4, 3), (4, 4)])
    def test_shift_block_lifts_to_trace_state(self, model4, n, m):
        # translation blocks on the root-of-unity grids, XOR blocks on the 4x4 grid
        model = model4 if n == 4 else _fourier_model(n)
        T = cp.trace_state(model, m)
        B = cp.trace_state(model, m, model.symmetry.group)
        assert B.shift == ("xor" if n == 4 else "shift")
        assert B.entries.shape == (n ** (m - 1),) * 2
        rows = B.index(T.tuples())
        lifted = B.entries[np.ix_(rows, rows)] / n
        assert np.abs(lifted - T.entries).max() < 1e-15
        assert abs(tensor_ops.entry(B, (2,) * m, (3,) + (1,) * (m - 1))
                   - tensor_ops.entry(T, (2,) * m, (3,) + (1,) * (m - 1))) < 1e-15

    def test_matches_literal_traces(self, model4):
        T = cp.trace_state(model4, 2)
        for itup in [(1, 2), (3, 4), (2, 2)]:
            for ktup in [(1, 2), (4, 1), (3, 3)]:
                word = tuple(zip(itup, ktup))
                prod = model4.projection(*word[0])
                for pair in word[1:]:
                    prod = prod @ model4.projection(*pair)
                want = np.trace(prod) / 4
                assert abs(tensor_ops.entry(T, itup, ktup) - want) < 1e-13


class TestCyclicProducts:
    """The broadcast cyclic Gram product against its einsum form."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_einsum(self, model4, n, m):
        model = model4 if n == 4 else _fourier_model(n)
        ref = tensor_ops.cyclic_products_einsum(model, m, pinned=False) / n
        assert np.abs(cp.trace_state(model, m).entries - ref).max() <= 1e-15
        ref = tensor_ops.cyclic_products_einsum(model, m, pinned=True)
        block = cp.trace_state(model, m, model.symmetry.group).entries
        assert np.abs(block - ref).max() <= 1e-15


class _ServedByRows:
    """A dense matrix handed out a batch of rows at a time (``np.take``
    along axis 0), as a ``gram_state`` is: ``cesaro_limit`` then gates on
    rows only."""

    def __init__(self, M):
        self.M, self.shape = M, M.shape

    def take(self, rows, axis=0, out=None, mode="raise"):
        assert axis == 0
        return self.M.take(rows, axis, out, mode)


class TestGramRows:
    """The rows the probe builds at the orbit representatives, and what it
    reads off them."""

    @pytest.mark.parametrize("n,max_degree", [(4, 5), (5, 5), (6, 5), (7, 5)])
    def test_rows_at_representatives_are_the_builders_rows(self, model4, n, max_degree):
        model = model4 if n == 4 else _fourier_model(n)
        for m in range(1, max_degree + 1):
            layouts = [None, "xor"] if n == 4 else ["shift"] + ([None] if n ** m <= 1296 else [])
            for shift in layouts:
                T = cp.trace_state(model, m, shift)
                plan = cp._sector_plan(n, m, shift, m)
                for reps in (plan.reps, plan.pi[plan.reps]):
                    rows = cp._cyclic_rows(model, m, T.tuples()[reps], bool(shift))
                    if not shift:
                        rows /= n
                    assert np.array_equal(rows, T.entries[reps]), (n, m, shift)
                    assert np.array_equal(cp.gram_state(model, m, shift).entries[reps],
                                          T.entries[reps])

    def test_row_gate_reads_the_rotated_rows(self):
        # a matrix that rotation changes, served by rows: the gate is
        # max |M[pi(reps)][:, pi] - M[reps]|, and it declines the split
        T = tiny_gap_tensor(4, 2)
        plan = cp._sector_plan(4, 2, False, 2)
        want = np.abs(T.entries[plan.pi[plan.reps]][:, plan.pi]
                      - T.entries[plan.reps]).max()
        res = cp.cesaro_limit(cp.StateTensor(4, 2, _ServedByRows(T.entries)))
        assert res.traciality_residual == want > 1e-12
        assert res.sectors == [16]
        ref = cp.cesaro_limit(T)
        assert (res.fixed_dim, res.converged) == (ref.fixed_dim, ref.converged)
        assert np.abs(tensor_ops.limit_of(res).entries
                      - tensor_ops.limit_of(ref).entries).max() < 1e-12

    @pytest.mark.parametrize("n,m", [(4, 3), (4, 4), (5, 4), (6, 3)])
    def test_row_gate_on_trace_states(self, model4, n, m):
        model = model4 if n == 4 else _fourier_model(n)
        shift = model.symmetry.group
        T = cp.trace_state(model, m, shift)
        plan = cp._sector_plan(n, m, shift, m)
        want = np.abs(T.entries[plan.pi[plan.reps]][:, plan.pi]
                      - T.entries[plan.reps]).max() / T.scale
        res = cp.cesaro_limit(cp.gram_state(model, m, shift))
        assert res.traciality_residual == want <= 1e-15
        assert len(res.sectors) == m

    @pytest.mark.parametrize("n,m", [(4, 4), (5, 5), (6, 4)])
    def test_batches_of_rows_agree_with_one_batch(self, model4, monkeypatch, n, m):
        model = model4 if n == 4 else _fourier_model(n)
        T = cp.gram_state(model, m, model.symmetry.group)
        whole = cp.cesaro_limit(T)
        side = T.entries.shape[0]
        for rows in (1, 2, 7):                 # batches of 1, 2 and 7 rows
            monkeypatch.setattr(cp, "ROW_BATCH", rows * side)
            res = cp.cesaro_limit(T)
            assert (res.fixed_dim, res.sectors) == (whole.fixed_dim, whole.sectors)
            assert res.traciality_residual == whole.traciality_residual
            assert abs(res.invariance_residual - whole.invariance_residual) < 1e-15
            assert np.abs(tensor_ops.limit_of(res).entries
                          - tensor_ops.limit_of(whole).entries).max() < 1e-14


class TestRowWorkspace:
    """The batch stage writes its large arrays into views of one workspace:
    the rows, the orbit gather, the character blocks and the gate."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_cyclic_rows_into_out(self, model4, n, pinned):
        model = model4 if n == 4 else _fourier_model(n)
        for m in range(1, 6):
            tuples = cp._stored_tuples(n, m, pinned)
            tuples = tuples[np.unique(np.linspace(0, len(tuples) - 1, 9).astype(int))]
            want = cp._cyclic_rows(model, m, tuples, pinned)
            # a view inside a NaN-filled buffer: all of it is written, and nothing around it
            buffer = np.full(want.size + 5, np.nan, dtype=complex)
            out = buffer[3:-2].reshape(want.shape)
            assert cp._cyclic_rows(model, m, tuples, pinned, out=out) is out
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), (m, pinned)
            assert np.isnan(buffer[:3]).all() and np.isnan(buffer[-2:]).all()

    @pytest.mark.parametrize("n,m", [(4, 3), (4, 4), (5, 5), (6, 4)])
    def test_sector_rows_match_the_direct_product(self, model4, monkeypatch, n, m):
        model = model4 if n == 4 else _fourier_model(n)
        shift = model.symmetry.group
        plan = cp._sector_plan(n, m, shift, m)
        T = cp.gram_state(model, m, shift)
        D = cp.trace_state(model, m, shift).entries
        side, R = D.shape[0], plan.reps.size
        chi = np.exp(2j * np.pi / m * np.outer(np.arange(m), np.arange(m)))
        taken = np.stack([D[np.ix_(plan.reps, plan.orbits[d])] for d in range(m)])
        want = (chi @ taken.reshape(m, -1)).reshape(m, R, R)   # chi @ M[rep a, pi^d rep b]
        tracial = np.abs(D[plan.pi[plan.reps]][:, plan.pi] - D[plan.reps]).max()
        imag = np.abs(D[plan.reps].imag).max()
        for rows in (None, 1, 7):              # one batch; batches of 1 and 7 rows
            if rows:
                monkeypatch.setattr(cp, "ROW_BATCH", rows * side)
            for M in (D, T.entries, _ServedByRows(D)):
                for gated in (False, True):
                    Ct, worst, mirror = cp._sector_rows(M, plan, gated)
                    got = np.array([block.T for block in Ct])
                    assert np.abs(got - want).max() <= 1e-15, (rows, type(M), gated)
                    assert worst == (tracial if gated else 0.0), (rows, type(M))
                    assert mirror == 2 * imag, (rows, type(M), gated)

    def test_workspace_bounds_the_traced_peak(self, monkeypatch):
        # at n = 6, m = 4 the batch stage holds the workspace (and C, when
        # there are several batches) and small arrays; building rows from
        # the Gram table adds the last product's two factors (1/n of the
        # rows each) and numpy's buffers for its broadcast operands
        n, m = 6, 4
        plan = cp._sector_plan(n, m, "shift", m)
        T = cp.gram_state(_fourier_model(n), m, "shift")
        side, R = T.entries.shape[0], plan.reps.size
        dense = cp.trace_state(_fourier_model(n), m, "shift").entries
        for rows in (None, 7):
            if rows:
                monkeypatch.setattr(cp, "ROW_BATCH", rows * side)
            b = min(R, max(1, cp.ROW_BATCH // side))
            work = 16 * (2 * b * side + 2 * m * b * R)
            C = 0 if b == R else 16 * m * R ** 2      # one batch: C is in the workspace
            built = 16 * 2 * b * side                   # the rows a batch builds
            for M, build in ((dense, 0), (T.entries, 2 * built / n + 2 * 16 * np.getbufsize())):
                cp._sector_rows(M, plan, gated=True)
                tracemalloc.start()
                try:
                    cp._sector_rows(M, plan, gated=True)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - work - C < build + 64 * 1024, (rows, type(M))


class TestConvolve:
    def test_uniform_is_idempotent(self, model4):
        T = cp.trace_state(model4, 1)
        C = tensor_ops.convolve(T, T)
        assert np.abs(C.entries - T.entries).max() < 1e-14

    def test_row_sums_preserved(self, model5):
        T = cp.trace_state(model5, 2)
        assert tensor_ops.row_sum_error(tensor_ops.convolve(T, T)) < 1e-10

    def test_matches_definition_sum(self, model4):
        T = cp.trace_state(model4, 2)
        C = tensor_ops.convolve(T, T)
        n2 = 16
        direct = np.array([[sum(T.entries[a, k] * T.entries[k, b]
                                for k in range(n2)) for b in range(n2)]
                           for a in range(n2)])
        assert np.abs(C.entries - direct).max() < 1e-12

    def test_associativity(self, model5):
        T = cp.trace_state(model5, 2)
        A = tensor_ops.convolve(T, T)
        B = tensor_ops.convolve(T, A)
        left = tensor_ops.convolve(tensor_ops.convolve(A, B), T)
        right = tensor_ops.convolve(A, tensor_ops.convolve(B, T))
        assert np.abs(left.entries - right.entries).max() < 1e-10


class TestCesaroLimit:
    def test_degree_one_immediate(self, model4):
        T = cp.trace_state(model4, 1)
        res = cp.cesaro_limit(T)
        assert res.converged
        assert np.abs(tensor_ops.limit_of(res).entries - 0.25).max() < 1e-12

    def test_idempotent_input_is_fixed(self, model4):
        T = cp.trace_state(model4, 1)
        res = cp.cesaro_limit(T)
        assert res.fixed_dim == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_limit_invariance(self, model4, m):
        T = cp.trace_state(model4, m)
        res = cp.cesaro_limit(T)
        assert res.converged
        L = tensor_ops.limit_of(res).entries
        assert np.abs(L @ T.entries - L).max() < 1e-8
        assert np.abs(L.sum(axis=1) - 1).max() < 1e-10

    def test_traciality_of_limit(self, model5):
        res = cp.cesaro_limit(cp.trace_state(model5, 3))
        L = tensor_ops.limit_of(res)
        assert np.abs(L.entries - L.rotated().entries).max() < 1e-8

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rotated_matches_transpose(self, model4, m):
        # reference: move every tuple axis one place, as np.roll does to a tuple
        T = cp.trace_state(model4, m)
        arr = T.entries.reshape((4,) * (2 * m))
        rot = [(t + 1) % m for t in range(m)]
        arr = arr.transpose(tuple(rot) + tuple(m + t for t in rot))
        assert np.array_equal(T.rotated().entries, arr.reshape(T.entries.shape))

    def test_empty_sector(self, model4):
        # n = 1 at degree 2: the rotation fixes the one stored row, so sector
        # 1 has no member; every reduction over it must take the empty case
        model = fm.FlatModel(None, 1, np.ones((1,) * 4))
        res = cp.cesaro_limit(cp.gram_state(model, 2))
        assert (res.sectors, res.fixed_dim, res.converged, res.gap) == ([1, 0], 1, True, None)
        assert res.theta_residual == res.mirror_residual == 0.0
        assert res.invariance_residual < 1e-15
        # on XOR blocks at degree 2, pi fixes every stored row
        res = cp.cesaro_limit(cp.gram_state(model4, 2, "xor"))
        assert (res.sectors, res.fixed_dim, res.converged) == ([4, 0], 2, True)
        assert abs(res.gap - 2 / 3) < 1e-15

    def test_iteration_cap_reports_not_converged(self):
        # an eigenvalue 1e-7 below 1 is kept (within sqrt(tol)) but not
        # certified (further than tol): the fixed space is ambiguous
        res = cp.cesaro_limit(tiny_gap_tensor(4, 2))
        assert res.converged is False
        assert res.fixed_dim == 2

    def test_label_permutation_covariance(self, model4):
        act = tensor_ops.LabelAction(sigma=(2, 1, 4, 3), tau=(3, 4, 1, 2))
        T = cp.trace_state(model4, 2)
        limit_of = tensor_ops.limit_of
        limit_then_permute = tensor_ops.permuted(limit_of(cp.cesaro_limit(T)), act)
        permute_then_limit = limit_of(cp.cesaro_limit(tensor_ops.permuted(T, act)))
        assert np.abs(limit_then_permute.entries
                      - permute_then_limit.entries).max() < 1e-8

    def test_fixed_space_mode_agrees(self, model4):
        T = cp.trace_state(model4, 2)
        doubling = cesaro_oracle.doubling_limit(T.entries)
        spectral = cp.cesaro_limit(T, cp.ProbeConfig())
        assert np.abs(doubling - tensor_ops.limit_of(spectral).entries).max() < 1e-10

    def test_literal_mode_agrees(self, model4):
        # the eigenvalues of T other than 1 lie in [-1/3, 1/3], so the
        # average of r powers is within 1/(2r) of the limit
        T = cp.trace_state(model4, 2)
        res = cp.cesaro_limit(T)
        assert res.converged
        literal = cesaro_oracle.literal_average(T.entries, 10_000)
        assert np.abs(literal - tensor_ops.limit_of(res).entries).max() < 1e-4

    def test_unstable_squaring_is_guarded(self):
        # n = 6 has a power sequence whose repeated squaring amplifies noise;
        # the spectral limit takes no powers and must stay accurate
        model6 = fm.model_from_basis(mb.build_fourier_basis(6))
        T = cp.trace_state(model6, 2)
        res = cp.cesaro_limit(T)
        L = tensor_ops.limit_of(res).entries
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
    return n, m, tensor_ops.LabelAction(sigma=sigma, tau=tau)


class TestFixedSpaceProperties:
    """The limit is the orthogonal projector onto the fixed space of T."""

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_projector_properties(self, case):
        n, m, act = case
        T = tensor_ops.permuted(cp.trace_state(_PROPERTY_MODELS[n], m), act)
        res = cp.cesaro_limit(T)
        P = tensor_ops.limit_of(res).entries
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
        limit_of = tensor_ops.limit_of
        limit_then_permute = tensor_ops.permuted(limit_of(cp.cesaro_limit(T)), act)
        permute_then_limit = limit_of(cp.cesaro_limit(tensor_ops.permuted(T, act)))
        assert np.abs(limit_then_permute.entries
                      - permute_then_limit.entries).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_matches_unsplit_oracle(self, case):
        # label actions commute with the rotation, so T stays tracial and
        # is solved in m sectors
        n, m, act = case
        T = tensor_ops.permuted(cp.trace_state(_PROPERTY_MODELS[n], m), act)
        res, ref = cp.cesaro_limit(T), cesaro_oracle.unsplit_limit(T)
        assert len(res.sectors) == m and sum(res.sectors) == T.entries.shape[0]
        assert (res.fixed_dim, res.converged) == (ref.fixed_dim, ref.converged)
        assert abs(res.gap - ref.gap) < 1e-12
        assert abs(res.traciality_residual - ref.traciality_residual) < 1e-12
        assert np.abs(tensor_ops.limit_of(res).entries
                      - tensor_ops.limit_of(ref).entries).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(probe_cases())
    def test_matches_doubling_oracle(self, case):
        n, m, act = case
        T = tensor_ops.permuted(cp.trace_state(_PROPERTY_MODELS[n], m), act)
        reference = cesaro_oracle.doubling_limit(T.entries)
        L = tensor_ops.limit_of(cp.cesaro_limit(T))
        assert np.abs(L.entries - reference).max() < 1e-10


class TestFixMomentEstimates:
    def test_degree_one_estimate(self, model5):
        limit = tensor_ops.limit_of(cp.cesaro_limit(cp.trace_state(model5, 1)))
        fix = tensor_ops.fix_moment(limit)
        assert abs(fix.real - 1.0) < 1e-12
        assert abs(fix.imag) < 1e-12
        assert abs(tensor_ops.entry(limit, (2,), (3,)) - 1 / 5) < 1e-12


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
        assert lines[0] == "m,estimate,catalan,residual"
        assert len(lines) == 5

    def test_max_iterations_one_is_data_not_error(self, model4, monkeypatch):
        real_gram_state = cp.gram_state

        def gram_state(model, m, shift):
            return tiny_gap_tensor(4, 2) if m == 2 else real_gram_state(model, m, shift)

        monkeypatch.setattr(cp, "gram_state", gram_state)
        report = cp.inner_faithfulness_report(model4, cp.ProbeConfig(max_degree=2))
        assert report.degrees[-1].converged is False
        assert report.verdict.startswith("inconclusive at degree 2")

    @pytest.mark.parametrize("tol", [2.0 ** -106])
    def test_too_tight_a_cut_is_inconclusive(self, model4, tol):
        # eigenvalues of 1 computed an ulp below it fall under the cut
        # 1 - sqrt(tol); every model at n >= 4 fixes the C_m dimensions that
        # S_n^+ fixes, so fewer kept ones leave the degree open
        cfg = cp.ProbeConfig(max_degree=2, tol_converge=tol)
        report = cp.inner_faithfulness_report(model4, cfg)
        short = [d for d in report.degrees if d.fixed_space_dim < d.catalan_target]
        assert short and all(d.converged for d in report.degrees)
        assert report.verdict.startswith(f"inconclusive at degree {short[0].m}: "
                                         f"{short[0].fixed_space_dim} eigenvalues passed")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cp.ProbeConfig(max_degree=0)
        with pytest.raises(ValueError):
            cp.ProbeConfig(tol_converge=0.0)
        # at tol >= 1 the complement's eigenvalue 0 would count as fixed
        with pytest.raises(ValueError):
            cp.ProbeConfig(tol_converge=1.0)
        for cap in (0, -5):
            with pytest.raises(ValueError):
                cp.ProbeConfig(memory_cap=cap)

    def test_cut_that_rounds_to_one_is_refused(self):
        # at tol <= 2^-108 the cut 1 - sqrt(tol) is exactly 1.0
        for tol in (2.0 ** -108, 1e-40, 5e-324):
            with pytest.raises(ValueError, match="2\\^-108"):
                cp.ProbeConfig(tol_converge=tol)
        assert 1.0 - math.sqrt(cp.ProbeConfig(tol_converge=2.0 ** -107).tol_converge) < 1.0


_FOURIER_MODELS = {}


def _fourier_model(n):
    if n not in _FOURIER_MODELS:
        _FOURIER_MODELS[n] = fm.model_from_basis(mb.build_fourier_basis(n))
    return _FOURIER_MODELS[n]


def _symmetry_without_graph(mp):
    """Every model's label group as the gate finds it, but no label graph:
    the Fourier grids take the rotation-sector path, the oracle of the orbit
    path (``TestOrbitPath``).  A property, so no cached symmetry is read."""
    gate = fm.FlatModel.symmetry.func
    mp.setattr(fm.FlatModel, "symmetry",
               property(lambda model: gate(model)._replace(graph=None)))


@pytest.fixture
def sector_path(monkeypatch):
    _symmetry_without_graph(monkeypatch)


def _full_path_report(model, cfg):
    """The report with no label group: the full n^m tensors."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm.FlatModel, "symmetry", property(lambda model: lo.LabelSymmetry(None, None)))
        return cp.inner_faithfulness_report(model, cfg)


def _assert_degrees_agree(a, b, differ=()):
    """Every DegreeProbe field but those in ``differ`` agrees: exactly for
    flags, counts and None, to 1e-12 for numbers."""
    for field in dataclasses.fields(cp.DegreeProbe):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name in differ:
            continue
        if field.name == "class_residuals":
            assert x.keys() == y.keys()
            for tag, info in x.items():
                other = y[tag]
                assert info["exact"] == other["exact"]
                assert abs(complex(*info["estimate"])
                           - complex(*other["estimate"])) < 1e-12, (a.m, tag)
                assert abs(info["residual"] - other["residual"]) < 1e-12
        elif isinstance(x, float) and y is not None:
            assert abs(x - y) < 1e-12, (a.m, field.name)
        else:
            assert x == y, (a.m, field.name)


def _assert_fields_match_limit(degree, T):
    """The DegreeProbe fields the report reads off Vk, against the same
    fields read off the formed limit L of the unsplit oracle."""
    L = tensor_ops.limit_of(cesaro_oracle.unsplit_limit(T))
    assert abs(tensor_ops.fix_moment(L) - degree.fix_moment_estimate) < 1e-12
    assert abs(tensor_ops.row_sum_error(L) - degree.row_sum_error) < 1e-12
    # |L T - L|_F of the tensor, which its shift block shares; the old field,
    # the largest entry of L T - L in the tensor, bounds it from below
    defect = L.entries @ T.entries - L.entries
    assert abs(np.linalg.norm(defect) - degree.invariance_residual) < 1e-12
    assert degree.invariance_residual >= np.abs(defect).max() / L.scale
    for tag, info in degree.class_residuals.items():
        rep = hx.REPRESENTATIVES[tag]
        est = tensor_ops.entry(L, tuple(i for i, _ in rep), tuple(j for _, j in rep))
        assert abs(est - complex(*info["estimate"])) < 1e-12, tag


def _layout(reduction):
    """The ``StateTensor`` layout of a report's ``reduction`` on the sector path."""
    return None if reduction == "none" else reduction


def _check_fields_match_the_limit(model, max_degree):
    report = cp.inner_faithfulness_report(model, cp.ProbeConfig(max_degree=max_degree))
    for degree in report.degrees:
        T = cp.trace_state(model, degree.m, _layout(degree.reduction))
        _assert_fields_match_limit(degree, T)


def _assert_reports_agree(reduced, full, reduction="shift"):
    assert reduced.verdict == full.verdict
    for r, f in zip(reduced.degrees, full.degrees, strict=True):
        assert (r.reduction, f.reduction) == (reduction, "none")
        _assert_degrees_agree(r, f, differ=("reduction", "block_size", "sectors"))


@pytest.mark.usefixtures("sector_path")
class TestShiftReduction:
    """Shift-invariant Gram tables are probed on blocks of side n^(m-1)."""

    def test_gate(self, model4):
        assert not lo.shift_invariant(model4.gram)
        assert model4.symmetry.group == "xor"
        for n in (5, 6, 7, 8):
            assert lo.shift_invariant(_fourier_model(n).gram)
            assert _fourier_model(n).symmetry.group == "shift"

    def test_4x4_grid_takes_xor_blocks(self, report4):
        # its Gram table is not shift-invariant, but XOR-invariant up to a
        # sign gauge: blocks of side 4^(m-1)
        assert [d.reduction for d in report4.degrees] == ["xor"] * 4
        assert [d.block_size for d in report4.degrees] == [1, 4, 16, 64]

    def test_xor_blocks_match_the_full_tensor(self, model4):
        # at degrees 1-6, every field that keeps its meaning, to 1e-12, and the verdict
        cfg = cp.ProbeConfig(max_degree=6)
        reduced = cp.inner_faithfulness_report(model4, cfg)
        full = _full_path_report(model4, cfg)
        assert [d.block_size for d in full.degrees] == [4 ** m for m in range(1, 7)]
        assert [d.fixed_space_dim for d in reduced.degrees] == [1, 2, 5, 14, 42, 132]
        _assert_reports_agree(reduced, full, "xor")

    def test_gate_declines_perturbed_grid(self):
        xi = mb.build_fourier_basis(5).xi.copy()
        xi[0, 1, 2] += 1e-9
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mb, "TOL_CONSTRUCT", 1e-8)
            model = fm.model_from_basis(mb.MagicBasis(n=5, xi=xi))
        assert not lo.shift_invariant(model.gram) and model.symmetry.group is None
        report = cp.inner_faithfulness_report(
            model, cp.ProbeConfig(max_degree=4, tol_converge=1e-8))
        assert [d.reduction for d in report.degrees] == ["none"] * 4
        assert [d.fixed_space_dim for d in report.degrees] == [1, 2, 5, 15]
        assert all(d.converged for d in report.degrees)
        assert abs(report.degrees[3].spectral_gap - (1 - 1 / math.sqrt(5))) < 1e-8
        assert abs(report.degrees[3].fix_moment_estimate - 15) < 1e-8
        assert report.verdict.startswith("deviates at degree 4")

    @pytest.mark.parametrize("n,max_degree", [(5, 4), (6, 3), (7, 3)])
    def test_reduced_matches_full(self, n, max_degree):
        cfg = cp.ProbeConfig(max_degree=max_degree)
        model = _fourier_model(n)
        reduced = cp.inner_faithfulness_report(model, cfg)
        assert [d.block_size for d in reduced.degrees] == [n ** (m - 1) for m in
                                                            range(1, max_degree + 1)]
        _assert_reports_agree(reduced, _full_path_report(model, cfg))

    def test_paths_agree_off_states(self, model5):
        # a perturbed uniform block: its residuals are far from 0, so a wrong
        # block-to-tensor scale would show
        n, m = 5, 2
        E = np.random.default_rng(1).standard_normal((n, n))
        block = np.full((n, n), 1 / n) + 1e-3 * (E - E.mean(axis=1, keepdims=True))
        B = cp.StateTensor(n, m, block.astype(complex), shift="shift")
        rows = B.index(cp.trace_state(model5, m).tuples())
        T = cp.StateTensor(n, m, B.entries[np.ix_(rows, rows)] / n)
        real_gram_state = cp.gram_state
        cfg = cp.ProbeConfig(max_degree=m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cp, "gram_state", lambda model, d, shift:
                       (B if shift else T) if d == m else real_gram_state(model, d, shift))
            reduced = cp.inner_faithfulness_report(model5, cfg)
            full = _full_path_report(model5, cfg)
        assert reduced.degrees[1].invariance_residual > 1e-6
        assert reduced.degrees[1].traciality_residual > 1e-6
        # not tracial: the gate declines the rotation split on both paths
        assert (reduced.degrees[1].sectors, full.degrees[1].sectors) == ([5], [25])
        _assert_reports_agree(reduced, full)
        _assert_fields_match_limit(reduced.degrees[1], B)
        _assert_fields_match_limit(full.degrees[1], T)

    def test_degree_five_at_n5(self, monkeypatch):
        def full_tensor(*args):
            raise AssertionError("the probe built a whole matrix")

        monkeypatch.setattr(cp, "trace_state", full_tensor)
        report = cp.inner_faithfulness_report(_fourier_model(5),
                                              cp.ProbeConfig(max_degree=5))
        assert [d.fixed_space_dim for d in report.degrees] == [1, 2, 5, 15, 52]
        assert report.degrees[4].block_size == 625
        assert all(d.converged for d in report.degrees)

    def test_degree_one_gap_on_both_paths(self, report4, report5):
        assert report5.degrees[0].block_size == 1
        assert report4.degrees[0].spectral_gap == 1.0
        assert report5.degrees[0].spectral_gap == 1.0

    def test_working_set_gate(self, model4, monkeypatch):
        # refused up front when the sector blocks C (m matrices of side R,
        # the number of rotation orbits), SOLVE_SET more such matrices and
        # the workspace of the row batches, 16 bytes an entry, exceed the
        # cap; the workspace of b representatives holds their rows and the
        # rows at their images under pi (b x side each), the orbit gather
        # and the character blocks (m x b x R each); one batch, then three
        # rows a batch
        for model, m, side, rows in ((_fourier_model(5), 3, 25, None), (model4, 2, 4, None),
                                     (_fourier_model(6), 4, 216, None),
                                     (model4, 5, 256, None), (_fourier_model(6), 4, 216, 3)):
            if rows:
                monkeypatch.setattr(cp, "ROW_BATCH", rows * side)
            R = cp._sector_plan(model.n, m, model.symmetry.group, m).reps.size
            b = min(R, max(1, cp.ROW_BATCH // side))
            need = 16 * ((m + cp.SOLVE_SET) * R ** 2 + 2 * b * side + 2 * m * b * R)
            with pytest.raises(MemoryCap):
                cp.inner_faithfulness_report(
                    model, cp.ProbeConfig(max_degree=m, memory_cap=need - 1))
            report = cp.inner_faithfulness_report(
                model, cp.ProbeConfig(max_degree=m, memory_cap=need))
            assert report.degrees[-1].block_size == side

    @pytest.mark.parametrize("block", [False, True])
    def test_orbit_count_matches_the_plan(self, block):
        # every stored layout: the full tensor, and translation and XOR blocks
        for shift in ("shift", "xor") if block else (None,):
            for n in range(1, 9):
                if shift == "xor" and n & (n - 1):     # XOR moves need a power of two
                    continue
                for m in range(1, 9):
                    if n ** (m - block) <= 2 ** 16:
                        assert cp._orbit_count(n, m, shift) == \
                            cp._sector_plan(n, m, shift, m).reps.size, (n, m, shift)

    def test_xor_orbit_counts(self):
        # a rotation with cycles of even length fixes tuples moved by any c
        assert [cp._orbit_count(4, m, "xor") for m in (2, 4, 6, 8)] == [4, 22, 184, 2086]
        assert [cp._orbit_count(4, m, "shift") for m in (2, 4, 6, 8)] == [3, 20, 178, 2070]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=5, max_value=7), st.integers(min_value=1, max_value=3))
    def test_paths_agree_property(self, n, max_degree):
        cfg = cp.ProbeConfig(max_degree=max_degree)
        model = _fourier_model(n)
        _assert_reports_agree(cp.inner_faithfulness_report(model, cfg),
                              _full_path_report(model, cfg))


class TestLabelSymmetry:
    """Each model's label group, decided once from its Gram table alone."""

    def test_xor_moves_need_a_sign_gauge_on_the_4x4_grid(self, model4):
        G, labels = model4.gram, np.arange(4)
        for c in (1, 2, 3):
            for moved in (G[labels ^ c][:, :, labels ^ c], G[:, labels ^ c][..., labels ^ c]):
                assert np.abs(moved - G).max() > 1             # not invariant as it stands,
                assert lo.gauge_residual(G, moved) == 0.0      # but exactly up to signs
        # no gauge makes the cyclic shift a symmetry: a correct refusal
        shifted = G[(labels + 1) % 4][:, :, (labels + 1) % 4]
        assert lo.gauge_residual(G, shifted) > 1
        assert model4.symmetry == ("xor", None)

    def test_gauge_undoes_random_phases(self, model5):
        phases = np.exp(2j * np.pi * np.random.default_rng(3).random(25))
        rephased = (phases.conj()[:, None] * model5.gram.reshape(25, 25)
                    * phases).reshape(model5.gram.shape)
        assert lo.gauge_residual(model5.gram, rephased) <= 1e-15
        assert lo.gauge_residual(rephased, model5.gram) <= 1e-15

    def test_gauge_declines_what_it_cannot_reach(self):
        # no nonzero entry joins the pair (1, 1) to the others
        gram = np.eye(16).reshape(4, 4, 4, 4)
        assert lo.gauge_residual(gram, gram) == math.inf

    def test_gate_reads_the_table_alone(self, model4, model5):
        # no basis and no kind: the Gram table decides
        assert fm.FlatModel(None, 4, model4.gram).symmetry == ("xor", None)
        assert fm.FlatModel(None, 5, model5.gram).symmetry == model5.symmetry
        assert model5.symmetry == ("shift", _graph(5))

    def test_decided_once_per_model(self, model4, monkeypatch):
        calls, gate = [], lo.label_symmetry
        monkeypatch.setattr(lo, "label_symmetry", lambda gram: calls.append(1) or gate(gram))
        model = fm.FlatModel(model4.basis, 4, model4.gram)
        for m in (1, 2, 3):
            cp.inner_faithfulness_report(model, cp.ProbeConfig(max_degree=m))
        assert calls == [1]


def _unsplit_report(model, cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "cesaro_limit", cesaro_oracle.unsplit_limit)
        return cp.inner_faithfulness_report(model, cfg)


@pytest.mark.usefixtures("sector_path")
class TestRotationSectors:
    """Tracial tensors are solved in the m sectors of the rotation."""

    @pytest.mark.parametrize("n,max_degree", [(4, 5), (5, 5), (6, 4), (7, 4)])
    def test_matches_unsplit_oracle(self, model4, n, max_degree):
        model = model4 if n == 4 else _fourier_model(n)
        cfg = cp.ProbeConfig(max_degree=max_degree)
        split, whole = cp.inner_faithfulness_report(model, cfg), _unsplit_report(model, cfg)
        assert split.verdict == whole.verdict
        assert [d.fixed_space_dim for d in split.degrees] == \
            ([1, 2, 5, 14, 42] if n == 4 else [1, 2, 5, 15, 52])[:max_degree]
        for s, w in zip(split.degrees, whole.degrees, strict=True):
            assert len(s.sectors) == s.m and sum(s.sectors) == s.block_size
            assert w.sectors == [w.block_size]
            _assert_degrees_agree(s, w, differ=("sectors",))

    def test_sector_sides(self, model4, report4):
        # the 4x4 grid's XOR blocks, and its full tensor
        assert report4.degrees[3].sectors == [22, 12, 18, 12]
        full = _full_path_report(model4, cp.ProbeConfig(max_degree=4))
        assert full.degrees[3].sectors == [70, 60, 66, 60]
        report6 = cp.inner_faithfulness_report(_fourier_model(6))
        assert report6.degrees[3].sectors == [58, 51, 56, 51]
        assert report6.degrees[3].fixed_space_dim == 15

    def test_gate_declines_non_tracial_input(self):
        T = tiny_gap_tensor(4, 2)
        res = cp.cesaro_limit(T)
        assert res.traciality_residual > 1e-12
        assert res.sectors == [16]
        assert res.fixed_dim == cesaro_oracle.unsplit_limit(T).fixed_dim == 2

    def test_report_never_forms_the_limit(self, model4):
        # the result holds Vk only; the limit Vk Vk* is tensor_ops.limit_of
        assert not hasattr(cp.CesaroResult, "limit")
        for model in (model4, _fourier_model(5)):
            cfg = cp.ProbeConfig(max_degree=4)
            split, whole = cp.inner_faithfulness_report(model, cfg), _unsplit_report(model, cfg)
            assert split.verdict == whole.verdict
            for s, w in zip(split.degrees, whole.degrees, strict=True):
                _assert_degrees_agree(s, w, differ=("sectors",))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_report_fields_match_the_limit(self, model4, n):
        _check_fields_match_the_limit(model4 if n == 4 else _fourier_model(n), 4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_report_fields_match_the_limit_at_degree_five(self, model4, n):
        _check_fields_match_the_limit(model4 if n == 4 else _fourier_model(n), 5)

    @pytest.mark.parametrize("n,m,block", [(4, 3, False), (5, 4, True), (6, 1, True),
                                           (4, 4, True)])
    def test_plan_is_cached_and_read_only(self, n, m, block):
        shift = _model(n).symmetry.group if block else None     # XOR blocks at n = 4
        for order in (m, 1):
            plan = cp._sector_plan(n, m, shift, order)
            assert cp._sector_plan(n, m, shift, order) is plan
            layout = cp.StateTensor(n, m, np.zeros((n ** (m - block),) * 2), shift)
            assert np.array_equal(plan.pi, layout.rotation())
            assert len(plan.sectors) == order
            arrays = [*plan[:-1], *(a for sector in plan.sectors for a in sector
                                    if isinstance(a, np.ndarray))]
            for array in (a for a in arrays if a.size):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]


# The probe configurations of the benchmark decks, with the fix moment each
# degree must reach: Catalan numbers on the 4x4 grid, the S_n counts on the
# root-of-unity grids.
_DECK_TARGETS = {(4, 4): [1, 2, 5, 14], (6, 4): [1, 2, 5, 15], (5, 3): [1, 2, 5]}


def _model(n):
    return fm.model_from_basis(mb.build_pauli_basis_4()) if n == 4 else _fourier_model(n)


def _tracial_noise(layout, seed):
    """A complex matrix in the layout of ``layout`` that rotation leaves
    unchanged and reversal does not conjugate: averaged over pi, random
    otherwise."""
    rng = np.random.default_rng(seed)
    side = layout.entries.shape[0]
    P = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    pi, total = np.arange(side), np.zeros((side, side), dtype=complex)
    for _ in range(layout.m):
        total += P[np.ix_(pi, pi)]
        pi = layout.rotation()[pi]
    return total / layout.m


def _eigh_calls(monkeypatch):
    """Record the dtype and side of every ``eigh`` call."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append((a.dtype, a.shape[0]))
                        or eigh(a, *args, **kw))
    return calls


@pytest.mark.usefixtures("sector_path")
class TestDihedralSectors:
    """Sectors 0..m/2 are solved as real matrices in their Theta-real basis;
    when the rows at the representatives are real, sector m - s takes the
    conjugates of sector s's vectors."""

    @pytest.mark.parametrize("n,max_degree", sorted(_DECK_TARGETS))
    def test_fix_moment_within_an_ulp(self, n, max_degree):
        # the benchmark's fix_moment_digits reads 14.75 at 1.78e-15 error
        report = cp.inner_faithfulness_report(_model(n), cp.ProbeConfig(max_degree=max_degree))
        for d, target in zip(report.degrees, _DECK_TARGETS[n, max_degree], strict=True):
            assert abs(d.fix_moment_estimate - target) <= 1.8e-15, (n, d.m)

    @pytest.mark.parametrize("n,max_degree", sorted(_DECK_TARGETS))
    def test_matches_unsplit_oracle(self, n, max_degree):
        cfg = cp.ProbeConfig(max_degree=max_degree)
        model = _model(n)
        split, whole = cp.inner_faithfulness_report(model, cfg), _unsplit_report(model, cfg)
        assert split.verdict == whole.verdict
        for s, w in zip(split.degrees, whole.degrees, strict=True):
            assert len(s.sectors) == s.m and sum(s.sectors) == s.block_size
            assert s.theta_residual <= 1e-15 and s.mirror_residual <= 1e-15
            _assert_degrees_agree(s, w, differ=("sectors",))
            # the projectors themselves, which the report fields need not pin
            T = cp.trace_state(model, s.m, model.symmetry.group)
            limits = [tensor_ops.limit_of(solve(T)).entries
                      for solve in (cp.cesaro_limit, cesaro_oracle.unsplit_limit)]
            assert np.abs(limits[0] - limits[1]).max() < 1e-12, s.m

    @pytest.mark.parametrize("n", [4, 6])
    def test_real_solves_per_degree(self, n, monkeypatch):
        calls = _eigh_calls(monkeypatch)
        report = cp.inner_faithfulness_report(_model(n), cp.ProbeConfig(max_degree=4))
        assert [dtype for dtype, _ in calls] == [np.float64] * len(calls)
        # sectors 0..m/2 are solved; the rest are their mirrors
        assert [side for _, side in calls] == [side for d in report.degrees
                                               for side in d.sectors[:d.m // 2 + 1]]

    def test_off_state_without_theta_symmetry_falls_back(self, model5, monkeypatch):
        # a tracial block that reversal does not conjugate: the Theta gate and
        # the mirror gate both decline, and every sector gets a complex solve
        m = 3
        B = cp.trace_state(model5, m, "shift")
        B = cp.StateTensor(5, m, B.entries + 1e-9 * _tracial_noise(B, 3), shift="shift")
        real_gram_state = cp.gram_state
        monkeypatch.setattr(cp, "gram_state", lambda model, d, shift:
                            B if d == m else real_gram_state(model, d, shift))
        cfg = cp.ProbeConfig(max_degree=m, tol_converge=1e-8)
        calls = _eigh_calls(monkeypatch)
        split = cp.inner_faithfulness_report(model5, cfg)
        assert [dtype for dtype, _ in calls[-m:]] == [np.complex128] * m
        whole = _unsplit_report(model5, cfg)
        s, w = split.degrees[-1], whole.degrees[-1]
        assert s.traciality_residual <= 1e-12 and len(s.sectors) == m
        assert s.theta_residual > 1e-12 and s.mirror_residual > 1e-12
        assert w.theta_residual > 1e-12 and w.mirror_residual > 1e-12
        for a, b in zip(split.degrees, whole.degrees, strict=True):
            _assert_degrees_agree(a, b, differ=("sectors", "theta_residual",
                                                "mirror_residual"))
        _assert_fields_match_limit(s, B)

    @pytest.mark.parametrize("delta,solves,total", [(1e-9, 3, 8), (1e-9j, 4, 10)])
    def test_perturbed_gram_falls_back(self, model5, monkeypatch, delta, solves, total):
        # one Gram entry off by 1e-9: no shift block, and reversal no longer
        # conjugates T beyond the gate, so the sectors are solved complex;
        # a real offset keeps T real, so sector 3 is still sector 1's mirror
        gram = model5.gram.copy()
        gram[0, 1, 2, 3] += delta
        model = fm.FlatModel(basis=model5.basis, n=5, gram=gram)
        cfg = cp.ProbeConfig(max_degree=4, tol_converge=1e-8)
        calls = _eigh_calls(monkeypatch)
        split = cp.inner_faithfulness_report(model, cfg)
        assert [d.reduction for d in split.degrees] == ["none"] * 4
        assert [dtype for dtype, _ in calls[-solves:]] == [np.complex128] * solves
        assert len(calls) == total                 # 1 + 2 + (2 or 3) + solves
        whole = _unsplit_report(model, cfg)
        assert split.verdict == whole.verdict
        assert [d.fixed_space_dim for d in split.degrees] == [1, 2, 5, 15]
        for s, w in zip(split.degrees, whole.degrees, strict=True):
            assert len(s.sectors) == s.m
            _assert_degrees_agree(s, w, differ=("sectors", "theta_residual",
                                                "mirror_residual"))
        s, w = split.degrees[-1], whole.degrees[-1]
        assert s.theta_residual > 1e-12 and w.theta_residual > 1e-12
        assert (s.mirror_residual > 1e-12) == (w.mirror_residual > 1e-12) == (solves == 4)

    @pytest.mark.parametrize("n,m", [(4, 3), (4, 4), (5, 4), (6, 3)])
    def test_mirror_gate_reads_the_rows_at_the_representatives(self, n, m):
        # 2 max |Im M[reps]| is max |M[reps] - conj M[reps]| bit for bit, on
        # every way of handing the probe its matrix, real or not, split or not
        shift = _model(n).symmetry.group
        T = cp.gram_state(_model(n), m, shift)
        D = cp.trace_state(_model(n), m, shift).entries
        noisy = D + 1e-9 * _tracial_noise(T, 3)
        skewed = noisy + 1e-6 * np.random.default_rng(0).standard_normal(D.shape)
        for E in (D, noisy, skewed):            # real; complex; neither, nor tracial
            for M in (E, _ServedByRows(E)) + ((T.entries,) if E is D else ()):
                res = cp.cesaro_limit(cp.StateTensor(n, m, M, shift),
                                      cp.ProbeConfig(tol_converge=1e-6))
                reps = cp._sector_plan(n, m, shift, len(res.sectors)).reps
                want = np.abs(E[reps] - E[reps].conj()).max() / T.scale
                assert res.mirror_residual == want, (type(M), len(res.sectors))
                assert (want > 1e-12) == (E is not D)
                assert len(res.sectors) == (1 if E is skewed else m)

    def test_mirror_gate_is_exactly_zero_on_the_4x4_grid(self):
        # its trace states are real: every degree takes the mirrored solve
        report = cp.inner_faithfulness_report(_model(4), cp.ProbeConfig(max_degree=6))
        assert [d.mirror_residual for d in report.degrees] == [0.0] * 6
        assert [d.fixed_space_dim for d in report.degrees] == [1, 2, 5, 14, 42, 132]

    @pytest.mark.parametrize("n,m", [(4, 4), (5, 4), (6, 3), (7, 3)])
    def test_mirror_gate_matches_the_unsplit_oracle(self, n, m):
        # every entry of a tracial T is an entry of its rows at the
        # representatives, so the rows' distance from real is T's
        shift = _model(n).symmetry.group
        T = cp.gram_state(_model(n), m, shift)
        D = cp.trace_state(_model(n), m, shift).entries
        noisy = cp.StateTensor(n, m, D + 1e-9 * _tracial_noise(T, 3), shift)
        for M in (T, noisy):
            got = cp.cesaro_limit(M, cp.ProbeConfig(tol_converge=1e-6)).mirror_residual
            want = cesaro_oracle.unsplit_limit(M).mirror_residual
            assert abs(got - want) <= 1e-15, (n, m)

    @pytest.mark.parametrize("n,m", [(5, 3), (5, 4), (4, 4), (6, 3)])
    def test_mirrored_share_of_a_loose_invariance_residual(self, n, m):
        # at tol_converge 0.5 the kept vectors are far from fixed, so the
        # residual is O(1) and a mirrored sector's share of it shows
        cfg = cp.ProbeConfig(tol_converge=0.5)
        T = cp.gram_state(_model(n), m, _model(n).symmetry.group)
        got, want = cp.cesaro_limit(T, cfg), cesaro_oracle.unsplit_limit(T, cfg)
        assert got.fixed_dim == want.fixed_dim
        assert got.invariance_residual > 1
        assert abs(got.invariance_residual - want.invariance_residual) <= 1e-12

    def test_theta_basis_is_real_on_every_sector(self):
        # Q* T_s Q is real to rounding on every solved sector of both grids
        for n, m in ((4, 5), (5, 5), (6, 3)):
            model = _model(n)
            T = cp.trace_state(model, m, model.symmetry.group)
            assert cp.cesaro_limit(T).theta_residual <= 1e-15


class TestReportOutput:
    """The report's JSON and class residuals against their references."""

    @pytest.mark.parametrize("n,max_degree", [(4, 4), (5, 5), (6, 4)])
    def test_to_dict_matches_asdict(self, n, max_degree):
        report = cp.inner_faithfulness_report(_model(n), cp.ProbeConfig(max_degree=max_degree))
        assert json.dumps(report.to_dict()) == json.dumps(tensor_ops.report_to_dict(report))

    @pytest.mark.usefixtures("sector_path")
    @pytest.mark.parametrize("n,max_degree", [(4, 4), (5, 4), (6, 4), (7, 3)])
    def test_class_residuals_match_per_tag(self, n, max_degree):
        # the report's class residuals on the sector path, against one dot
        # product of the same solve's Vk per class
        model = _model(n)
        report = cp.inner_faithfulness_report(model, cp.ProbeConfig(max_degree=max_degree))
        for degree in report.degrees:
            T = cp.gram_state(model, degree.m, model.symmetry.group)
            got = degree.class_residuals
            ref = tensor_ops.class_residuals_per_tag(T, cp.cesaro_limit(T).vectors)
            assert list(got) == list(ref)
            for tag, info in got.items():
                assert info["exact"] == ref[tag]["exact"]
                assert abs(complex(*info["estimate"]) - complex(*ref[tag]["estimate"])) <= 1e-15
                assert abs(info["residual"] - ref[tag]["residual"]) <= 1e-15

    def test_class_plan_is_cached_and_read_only(self):
        plan = cp._class_plan(6, 4, "shift")
        assert cp._class_plan(6, 4, "shift") is plan
        assert plan.tags == hx.DEGREE_CLASS_TAGS[4]
        assert plan.pairs[3] == ((0, 1, 0, 1), (0, 1, 2, 3))      # a4 = u11 u22 u13 u24
        for array in (plan.rows, plan.cols, plan.values):
            with pytest.raises(ValueError):
                array[0] = array[0]


def _sn_count(n, m):
    """Set partitions of m points into at most n blocks: sum_k S(m, k)."""
    stirling = [[0] * (m + 1) for _ in range(m + 1)]
    stirling[0][0] = 1
    for i in range(1, m + 1):
        for k in range(1, i + 1):
            stirling[i][k] = k * stirling[i - 1][k] + stirling[i - 1][k - 1]
    return sum(stirling[m][k] for k in range(1, min(n, m) + 1))


def _perp_label_count(n, m):
    return ((n - 1) ** m + (n - 1) * (-1) ** m) // n


def _orbit_oracle(P):
    """The least label of each label's orbit, by a union-find in Python."""
    parent = list(range(P.shape[1]))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in P.tolist():
        for x, y in enumerate(p):
            a, b = root(x), root(y)
            parent[max(a, b)] = min(a, b)
    return np.array([root(x) for x in range(len(parent))], dtype=int)


def _graph(n):
    return lo.label_graph(_fourier_model(n).gram)


# (n, the highest degree <= 6 that the rotation-sector path admits under the
# default memory cap); n = 7 at degree 6 takes that path about 15 s
_ADMITTED = [(5, 6), (6, 6), (7, 6), (8, 5)]


class TestOrbitPath:
    """Grids that pass ``label_graph`` are solved on the orbits of n label
    permutations; the rotation-sector path is the oracle."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 11])
    def test_gate_finds_the_swapped_negation(self, n):
        # f(alpha) = -alpha, except that 0 and -1 trade their images
        graph = _graph(n)
        want = [-a % n for a in range(n)]
        want[0], want[n - 1] = want[n - 1], want[0]
        assert list(graph.f) == want and graph.f != tuple(want[::-1])
        assert 0 < graph.residual <= 1e-13
        # the distance from the graph, with roots of unity rounded otherwise
        R = np.exp(2j * np.pi / n * np.outer(np.arange(n), np.arange(n)))
        ghat = R @ _fourier_model(n).gram[0, 0] @ R
        ghat[np.arange(n), list(graph.f)] -= n
        assert np.abs(ghat).max() <= 1e-13

    def test_gate_declines_the_4x4_grid(self, model4):
        assert lo.label_graph(model4.gram) is None
        assert model4.symmetry.graph is None

    @pytest.mark.parametrize("n,m", [(5, 2), (5, 3), (5, 4), (6, 3), (6, 4), (7, 3), (8, 3)])
    def test_shift_block_is_the_mixture_of_label_permutations(self, n, m):
        # in the labels a (sum 0, numbered by a_2..a_m), B's Fourier block is
        # (1/n) sum_alpha P_alpha: the claim the orbit path rests on
        B = cp.trace_state(_fourier_model(n), m, "shift").entries
        side = n ** (m - 1)
        labels = np.array(list(itertools.product(range(n), repeat=m - 1))).reshape(side, m - 1)
        Phi = np.exp(2j * np.pi / n * (labels @ labels.T)) / n ** ((m - 1) / 2)
        mixture = np.zeros((side, side))
        for p in lo.label_perms(n, m, _graph(n).f, perp=False):
            mixture[np.arange(side), p] += 1 / n
        assert np.abs(Phi.conj().T @ B @ Phi - mixture).max() < 1e-14

    @pytest.mark.parametrize("n,m", [(5, 1), (5, 2), (5, 4), (6, 5), (7, 3), (8, 4)])
    def test_perp_labels_are_the_restriction(self, n, m):
        f = _graph(n).f
        full = lo.label_perms(n, m, f, perp=False)
        tail = np.array(list(itertools.product(range(n), repeat=m - 1)),
                        dtype=int).reshape(n ** (m - 1), m - 1)
        perp = np.flatnonzero((tail != 0).all(axis=1) & (tail.sum(axis=1) % n != 0))
        renumber = np.full(full.shape[1], -1)
        renumber[perp] = np.arange(perp.size)
        P = lo.label_perms(n, m, f, perp=True)
        assert P.shape == (n, _perp_label_count(n, m))
        assert np.array_equal(P, renumber[full[:, perp]])
        for p in P:                                # each P_alpha a permutation
            assert np.array_equal(np.sort(p), np.arange(p.size))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_orbits_match_union_find(self, k, size, seed):
        rng = np.random.default_rng(seed)
        P = np.array([rng.permutation(size) for _ in range(k)]).reshape(k, size)
        assert np.array_equal(lo.orbits(P), _orbit_oracle(P))

    @pytest.mark.parametrize("n,m", [(5, 5), (6, 5), (7, 4), (8, 4)])
    def test_orbits_of_the_label_permutations(self, n, m):
        P = lo.label_perms(n, m, _graph(n).f, perp=True)
        assert np.array_equal(lo.orbits(P), _orbit_oracle(P))

    @pytest.mark.parametrize("n,max_degree", [(5, 5), (6, 5), (7, 4)])
    def test_gap_matches_the_dense_mixture(self, n, max_degree):
        # the eigenvalues of the whole all-perp block (P + P^T)/2 below its f_m
        # ones of 1; each degree's gap carries the lower degrees' maximum
        f, top = _graph(n).f, 0.0
        for m in range(1, max_degree + 1):
            P = lo.label_perms(n, m, f, perp=True)
            L = P.shape[1]
            mixture = np.zeros((L, L))
            for p in P:
                mixture[np.arange(L), p] += 1 / n
            lam = np.linalg.eigvalsh((mixture + mixture.T) / 2)
            plan = lo.orbit_plan(n, m, f)
            count = plan.counts[-1]
            assert np.abs(lam[L - count:] - 1).max(initial=0) < 1e-12
            if L > count:
                top = max(top, lam[L - count - 1])
            assert abs(plan.top - top) < 1e-12, (n, m)

    @pytest.mark.parametrize("n,max_degree", [(5, 10), (6, 8), (7, 6), (8, 5)])
    def test_fixed_dims_are_the_sn_counts(self, n, max_degree):
        f = _graph(n).f
        for m in range(1, max_degree + 1):
            plan = lo.orbit_plan(n, m, f)
            assert plan.labels == _perp_label_count(n, m)
            assert plan.fixed == _sn_count(n, m), (n, m)
            if n ** (m - 1) <= 10 ** 5:            # as many orbits of all the labels
                every = lo.orbits(lo.label_perms(n, m, f, perp=False))
                assert np.count_nonzero(every == np.arange(every.size)) == plan.fixed

    @pytest.mark.parametrize("n,max_degree", _ADMITTED)
    def test_matches_the_sector_path(self, n, max_degree):
        model = _fourier_model(n)
        cfg = cp.ProbeConfig(max_degree=max_degree)
        assert cp._working_set(n, max_degree, "shift") <= cfg.memory_cap
        assert max_degree == 6 or cp._working_set(n, max_degree + 1, "shift") > cfg.memory_cap
        orbits = cp.inner_faithfulness_report(model, cfg)
        with pytest.MonkeyPatch.context() as mp:
            _symmetry_without_graph(mp)
            sectors = cp.inner_faithfulness_report(model, cfg)
        assert orbits.verdict == sectors.verdict
        graph = _graph(n)
        for o, s in zip(orbits.degrees, sectors.degrees, strict=True):
            assert (o.reduction, s.reduction) == ("orbits", "shift")
            counts = lo.orbit_plan(n, o.m, graph.f).counts
            assert o.sectors == [_perp_label_count(n, o.m), counts[-1]]
            assert o.fixed_space_dim == sum(math.comb(o.m, k) * c for k, c in enumerate(counts))
            assert o.traciality_residual == graph.residual <= 1e-12
            assert o.theta_residual == o.mirror_residual == o.invariance_residual == 0.0
            assert o.fix_moment_estimate == o.fixed_space_dim
            _assert_degrees_agree(o, s, differ=("reduction", "sectors", "traciality_residual",
                                                "theta_residual", "mirror_residual"))

    @pytest.mark.parametrize("n,m", [(5, 4), (6, 3), (8, 4)])
    def test_vectors_are_the_sector_paths_fixed_space(self, n, m):
        # the closed form L[x, y] at every entry of the shift block, against
        # the projector onto the sector path's fixed space
        ref = tensor_ops.limit_of(cp.cesaro_limit(cp.gram_state(_fourier_model(n), m, "shift")))
        tuples = ref.tuples().tolist()
        pairs = tuple((tuple(x), tuple(y)) for x in tuples for y in tuples)
        L = lo.limit_entries(n, m, _graph(n).f, pairs).reshape(ref.entries.shape)
        lo.limit_entries.cache_clear()
        assert np.abs(L - ref.entries / ref.scale).max() < 1e-12

    def test_no_stored_vector_above_degree_four(self, monkeypatch):
        # nor at or below it: every degree is read off the orbit plan and the
        # closed form of the class entries, and no solve of the stored side runs
        def refuse(*args):
            raise AssertionError("the probe built a matrix or rows of the stored side")

        for name in ("gram_state", "trace_state", "_stored_tuples", "_sector_plan",
                     "cesaro_limit"):
            monkeypatch.setattr(cp, name, refuse)
        lo.orbit_plan.cache_clear()
        lo.limit_entries.cache_clear()
        report = cp.inner_faithfulness_report(_fourier_model(5), cp.ProbeConfig(max_degree=7))
        assert [d.reduction for d in report.degrees] == ["orbits"] * 7
        assert [d.fixed_space_dim for d in report.degrees] == [1, 2, 5, 15, 52, 202, 855]
        assert [d.row_sum_error for d in report.degrees] == [0.0] * 7
        assert [len(d.class_residuals) for d in report.degrees] == [1, 1, 1, 7, 0, 0, 0]

    def test_plan_is_cached_and_read_only(self):
        f = _graph(6).f
        for m in (1, 2, 4, 5):
            plan = lo.orbit_plan(6, m, f)
            assert lo.orbit_plan(6, m, f) is plan
            arrays = [plan.orbit]
            if m <= 4:                             # the cached class entries
                pairs = cp._class_plan(6, m, "shift").pairs
                arrays.append(lo.limit_entries(6, m, f, pairs))
                assert lo.limit_entries(6, m, f, pairs) is arrays[-1]
            for array in arrays:
                if array.size:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array.flat[0] = array.flat[0]

    def test_shift_invariant_table_off_the_graph_falls_back(self, model5):
        # g(1, 2) moved by 1e-9 everywhere: still shift-invariant, but its
        # DFT lies about 1e-9 off the permutation graph
        n = 5
        i, j, k, l = np.ogrid[:n, :n, :n, :n]
        gram = model5.gram + 1e-9 * (((k - i) % n == 1) & ((l - j) % n == 2))
        assert lo.shift_invariant(gram) and lo.label_graph(gram) is None
        model = fm.FlatModel(basis=model5.basis, n=n, gram=gram)
        assert model.symmetry == ("shift", None)
        report = cp.inner_faithfulness_report(
            model, cp.ProbeConfig(max_degree=4, tol_converge=1e-8))
        assert [d.reduction for d in report.degrees] == ["shift"] * 4
        assert [d.fixed_space_dim for d in report.degrees] == [1, 2, 5, 15]

    def test_perturbed_grid_falls_back(self, model5):
        # one coordinate off by 1e-9: no gauge restores the moduli, so the
        # probe solves the full tensor
        cfg = cp.ProbeConfig(max_degree=4, tol_converge=1e-8)
        plain = cp.inner_faithfulness_report(model5, cfg)
        perturbed = mb.build_fourier_basis(5).xi.copy()
        perturbed[0, 1, 2] += 1e-9
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mb, "TOL_CONSTRUCT", 1e-8)
            model = fm.model_from_basis(mb.MagicBasis(n=5, xi=perturbed))
        report = cp.inner_faithfulness_report(model, cfg)
        assert [d.reduction for d in report.degrees] == ["none"] * 4
        assert report.verdict == plain.verdict
        for d, p in zip(report.degrees, plain.degrees, strict=True):
            assert d.fixed_space_dim == p.fixed_space_dim
            assert abs(d.fix_moment_estimate - p.fix_moment_estimate) < 1e-8
            assert abs(d.spectral_gap - p.spectral_gap) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_rephased_grids_take_shift_blocks(self, model4, n):
        # a phase on each xi_ij leaves the model's projections as they are
        # but breaks the plain gates: the gauge restores the label group, and
        # the report matches the plain grid's (the orbit path at n >= 5)
        plain = model4 if n == 4 else _fourier_model(n)
        phases = np.exp(2j * np.pi * np.random.default_rng(n).random((n, n)))
        model = fm.model_from_basis(mb.MagicBasis(n=n, xi=plain.basis.xi * phases[:, :, None]))
        assert not lo.shift_invariant(model.gram)
        group = "xor" if n == 4 else "shift"
        assert model.symmetry == (group, None)
        cfg = cp.ProbeConfig(max_degree=4)
        report, want = (cp.inner_faithfulness_report(m, cfg) for m in (model, plain))
        assert [d.reduction for d in report.degrees] == [group] * 4
        assert report.verdict == want.verdict
        for d, p in zip(report.degrees, want.degrees, strict=True):
            assert d.fixed_space_dim == p.fixed_space_dim
            assert abs(d.fix_moment_estimate - p.fix_moment_estimate) < 1e-12
            assert abs(d.spectral_gap - p.spectral_gap) < 1e-12
            assert d.class_residuals.keys() == p.class_residuals.keys()
            for tag, info in d.class_residuals.items():
                assert abs(complex(*info["estimate"])
                           - complex(*p.class_residuals[tag]["estimate"])) < 1e-12, tag

    @pytest.mark.parametrize("n,m", [(5, 4), (5, 6), (6, 5), (7, 6), (8, 4), (10, 4)])
    def test_largest_orbit_meets_the_bound(self, n, m):
        orbit = lo.orbit_plan(n, m, _graph(n).f).orbit
        bound = lo.orbit_bound(n, m)
        assert np.bincount(orbit).max() == bound == math.perm(n - 1, min(m, n) - 1)

    @pytest.mark.parametrize("n,m,orbits", [
        (6, 4, True), (14, 4, True), (10, 5, True),    # bound <= 2.5 R, both fit
        (15, 4, False), (20, 4, False), (19, 3, False),    # bound > 2.5 R
        (5, 10, True), (7, 6, True),                   # the sector path over the cap
        (21, 4, False),                                # both fit, bound 2.9 R
        (24, 4, True),                                 # the sector path over the cap
    ])
    def test_path_choice(self, n, m, orbits):
        assert cp._takes_orbits(n, m, cp.ProbeConfig().memory_cap) is orbits
        bound, R = lo.orbit_bound(n, m), cp._orbit_count(n, m, "shift")
        cap = cp.ProbeConfig().memory_cap
        fits = (cp._working_set(n, m, "shift", True) <= cap,
                cp._working_set(n, m, "shift") <= cap)
        assert orbits == (fits[0] and (not fits[1] or bound <= 2.5 * R))

    def test_neither_path_fits_reports_the_smaller(self):
        # the orbit path's floor of batch buffers is about 17 MB, so at a
        # 1000-byte cap the smaller need of n = 6, degree 4 is the sector one
        assert not cp._takes_orbits(6, 4, 1000)
        assert cp._takes_orbits(5, 9, 1000)
        with pytest.raises(cp.MemoryCap, match="sector blocks and rows > cap 1000"):
            cp.inner_faithfulness_report(_fourier_model(6), cp.ProbeConfig(memory_cap=1000))

    @pytest.mark.parametrize("n,m,commutative", [(5, 4, False), (5, 8, False), (6, 7, False),
                                                 (7, 6, False), (8, 4, False), (5, 4, True),
                                                 (8, 4, True), (12, 4, True)])
    def test_working_set_bounds_the_traced_peak(self, n, m, commutative):
        # the plan of degree m, the lower ones built, and its class entries;
        # the commutative grid xi_ij = e_(j-i) also passes the gate, with
        # f = -id: every label is its own orbit, so the class entries sum
        # over side orbits
        f = tuple(-a % n for a in range(n)) if commutative else _graph(n).f
        pairs = cp._class_plan(n, m, "shift").pairs
        lo.orbit_plan.cache_clear()
        lo.limit_entries.cache_clear()
        for d in range(1, m):
            lo.orbit_plan(n, d, f)
        tracemalloc.start()
        try:
            plan = lo.orbit_plan(n, m, f)
            if pairs:
                lo.limit_entries(n, m, f, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lo.orbit_plan.cache_clear()
        lo.limit_entries.cache_clear()
        assert plan.fixed == (n ** (m - 1) if commutative else _sn_count(n, m))
        assert peak <= cp._working_set(n, m, "shift", True), (peak, n, m)
