"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py
"""

import random
import statistics
import sys
import types
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads

import qperm
import qperm.cli  # noqa: F401


def _first_decks(workload, seed):
    paths = workloads.Paths("/work")
    gen = workloads.decks(workload, seed, paths)
    return [next(gen) for _ in range(3)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert _first_decks(workload, 5) == _first_decks(workload, 5)


def test_other_seed_other_jobs_same_mix():
    a, b = _first_decks("mixed", 5), _first_decks("mixed", 6)
    assert a != b
    kinds = [sorted(job.kind for job in deck) for deck in a + b]
    assert all(k == kinds[0] for k in kinds)


def test_percentile_matches_linear_interpolation():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile(range(1, 11), 90) == pytest.approx(9.1)
    rng = random.Random(0)
    xs = [rng.random() for _ in range(137)]
    qs = statistics.quantiles(xs, n=100, method="inclusive")
    assert run.percentile(xs, 50) == pytest.approx(qs[49])
    assert run.percentile(xs, 90) == pytest.approx(qs[89])


def _fixed_spans():
    S = tracing.Span
    return [S("cli.main", 0.0, 10.0, None, 0),
            S("magic_bases.verify_magic", 1.0, 4.0, 0, 0),
            S("convolution_probe.inner_faithfulness_report", 5.0, 9.0, 0, 0),
            S("convolution_probe.cesaro_limit", 6.0, 7.0, 2, 0,
              {"doublings": 3, "matmuls": 7, "gflop": 0.5, "unconverged": 0}),
            S("haar_exact.fix_moment", 11.0, 13.0, None, 1, {"tuples": 256})]


def test_self_time_subtracts_direct_children():
    assert tracing.self_times(_fixed_spans()) == [3.0, 3.0, 3.0, 1.0, 2.0]


def test_layer_metrics_on_fixed_spans():
    m = tracing.layer_metrics(_fixed_spans(), jobs=2, job_seconds=15.0,
                              span_cost=1e-6)
    assert m["cli.main.self_s"] == (1.5, "s/job")
    assert m["convolution_probe.inner_faithfulness_report.self_s"][0] == 1.5
    assert m["convolution_probe.cesaro_limit.matmuls"][0] == 3.5
    assert m["convolution_probe.cesaro_limit.gflops"][0] == 0.5
    assert m["haar_exact.fix_moment.tuples"][0] == 128
    assert m["cli.main.calls"][0] == 0.5
    assert m["trace.coverage"][0] == pytest.approx(12.0 / 15.0)
    assert m["trace.overhead_s"][0] == pytest.approx(5 * 1e-6 / 2)


def test_cesaro_matmuls_from_curve():
    settled = [(2, 0.1, 0.1), (4, 0.05, 1e-9), (8, 0.02, 1e-15)]
    assert tracing.cesaro_matmuls("doubling", 8, settled) == 7
    drifting = [(2, 0.1, 1e-3), (4, 0.05, 1e-12), (8, 0.02, 2e-12), (16, 0.0, 3e-12)]
    assert tracing.cesaro_matmuls("doubling", 16, drifting) == 9
    averaged = [(2, 0.1, 0.1), (4, 1e-11, 0.05)]
    assert tracing.cesaro_matmuls("doubling", 4, averaged) == 4
    assert tracing.cesaro_matmuls("literal", 128, []) == 127
    assert tracing.cesaro_matmuls("fixed_space", 0, []) == 0


def _fake_qperm(main):
    return SimpleNamespace(cli=SimpleNamespace(main=main))


def _haar_job():
    return workloads.Job(kind="haar-mono", steps=(("haar", "--n", "6", "--mono", "1:1,2:2"),),
                         expect=(0,), params=(("n", 6), ("word", ((1, 1), (2, 2)))))


def _run(job, qperm_like):
    return run.evaluate(job, *run.execute(job, qperm_like))


def test_right_output_passes():
    assert _run(_haar_job(), qperm).passed


def test_wrong_output_is_a_failure():
    def wrong(argv):
        print("D2 = 1/2")
        return 0
    rec = _run(_haar_job(), _fake_qperm(wrong))
    assert not rec.passed and "oracle 1/30" in rec.reason


def test_crash_and_wrong_exit_are_failures():
    def crash(argv):
        raise TypeError("boom")
    rec = _run(_haar_job(), _fake_qperm(crash))
    assert not rec.passed and rec.exception
    rec = _run(_haar_job(), _fake_qperm(lambda argv: 2))
    assert not rec.passed and rec.exit_mismatch


def test_library_job_checked_against_fourteen():
    job = workloads.Job(kind="fix-moment", call=("haar_exact", "fix_moment", (8, 4)),
                        params=(("n", 8),))
    assert _run(job, qperm).passed
    fake = SimpleNamespace(haar_exact=SimpleNamespace(fix_moment=lambda n, k: 15))
    assert not _run(job, fake).passed


def test_every_seeded_haar_word_matches_the_oracle():
    rng = random.Random(3)
    for _ in range(200):
        job = workloads._haar_mono_job(rng)
        assert _run(job, qperm).passed, job


def test_install_wraps_from_imports_and_restores(tmp_path, monkeypatch):
    from qperm import convolution_probe as cp, flat_model, haar_exact
    original = cp.cesaro_limit
    rotated = cp.StateTensor.rotated
    helper = haar_exact.validate_monomial
    class_value = haar_exact.class_value
    # a module that bound a target with ``from .haar_exact import class_value``
    alias = types.ModuleType("qperm._alias")
    alias.class_value = haar_exact.class_value
    monkeypatch.setitem(sys.modules, "qperm._alias", alias)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cp.cesaro_limit is not original
        assert cp.StateTensor.rotated is not rotated
        assert haar_exact.class_value.__wrapped__ is class_value
        assert alias.class_value is haar_exact.class_value
        assert haar_exact.validate_monomial is helper is flat_model.validate_monomial
        tracer.job = 0
        out = str(tmp_path / "r.json")
        assert qperm.cli.main(["probe", "--n", "4", "--max-degree", "2", "--out", out]) == 0
    finally:
        restore()
    assert cp.cesaro_limit is original and cp.StateTensor.rotated is rotated
    assert alias.class_value is haar_exact.class_value is class_value
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    report = names.index("convolution_probe.inner_faithfulness_report")
    for span in tracer.spans:
        if span.name == "convolution_probe.trace_state":
            assert span.parent == report and span.attrs["bytes"] > 0
    assert all(s.job == 0 for s in tracer.spans)
    assert "magic_bases.verify_magic" in names
