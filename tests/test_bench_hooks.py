"""The benchmark's traced run reads a few hooks of the package.

``bench/tracing.py`` wraps ``cesaro_limit`` and reads its ``cfg.method`` and
the result's ``iterations``, ``curve`` and ``converged``; it also wraps
``StateTensor.rotated``.  Among the ``haar_exact`` targets it times
``exotic_bounds`` and ``class_value``.  Among the ``flat_model`` targets it
wraps ``classical_model`` and both orbital checks, and reads each report's
``total``.  These tests run two probes, three ``haar`` jobs and two
``orbitals`` jobs under the tracer, so a refactor that breaks a traced
benchmark run fails here first.
"""

import importlib.util
import os

from qperm import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_probes_converge(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for n in (6, 4):
            tracer.job = n
            assert cli.main(["probe", "--n", str(n), "--max-degree", "4"]) == 0
    finally:
        restore()
    capsys.readouterr()
    spans = [s for s in tracer.spans if s.name == "convolution_probe.cesaro_limit"]
    # the n = 6 job takes the orbit path, which reads no cesaro_limit
    assert len(spans) == 4 and {s.job for s in spans} == {4}
    assert {s.job for s in tracer.spans
            if s.name == "convolution_probe.inner_faithfulness_report"} == {4, 6}
    assert all(s.attrs is not None and s.attrs["unconverged"] == 0 for s in spans)
    metrics = tracing.layer_metrics(tracer.spans, jobs=2, job_seconds=1.0,
                                    span_cost=0.0)
    assert metrics["convolution_probe.cesaro_limit.unconverged"][0] == 0


def test_traced_haar_jobs_reach_the_table(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    jobs = (["haar", "--n", "6", "--mono", "1:1,2:2,1:3,2:4"],
            ["haar", "--n", "4", "--mono", "1:1,2:2,1:1,2:2"],
            ["haar", "table", "--n", "6"])
    try:
        for job, argv in enumerate(jobs):
            tracer.job = job
            assert cli.main(argv) == 0
    finally:
        restore()
    capsys.readouterr()

    def jobs_with(name):
        return {s.job for s in tracer.spans if s.name == name}

    assert jobs_with("haar_exact.exotic_bounds") == {0, 2}    # needs n >= 5
    assert jobs_with("haar_exact.class_value") == {0, 1, 2}


def test_traced_orbitals_jobs_count_words(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    # S_5 has no free 3-orbitals, the flat model at n = 5 has them
    jobs = ((["orbitals", "--n", "5", "--m", "3", "--model", "classical"], 1),
            (["orbitals", "--n", "5", "--m", "3"], 0))
    try:
        for job, (argv, code) in enumerate(jobs):
            tracer.job = job
            assert cli.main(argv) == code
    finally:
        restore()
    capsys.readouterr()

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    assert [s.job for s in spans("flat_model.classical_model")] == [0]
    for name, job in (("flat_model.check_free_orbitals_classical", 0),
                      ("flat_model.check_free_orbitals", 1)):
        [span] = spans(name)
        assert span.job == job and span.attrs == {"words": 5 ** 6}
