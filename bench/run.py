"""qperm benchmark: runs ``qperm`` commands in a closed loop and checks them.

    python3 bench/run.py --workload {probe-large,mixed} \
        --seed N --seconds S --trace {0,1}

One caller, one long-lived process: each job is a ``qperm.cli.main(argv)``
call (or one library call) started after the previous one finished.  The
seed fixes the job list; every output is checked against a reference after
the job, outside its timed span.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation; with ``--trace 1`` they are per-layer figures from spans
around calls into each qperm module, and the spans are written to
``bench/out/``.  The lines before the result give the environment and a
per-kind summary.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# The BLAS reads its thread count once, when numpy loads; qperm imports
# numpy on import, so the pin has to come first.
NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
os.environ["OMP_NUM_THREADS"] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_MIN_JOBS = 100      # p90 needs ten samples beyond it
DIGITS_FLOOR = 1e-16     # fix_moment_digits reads 16 for an exact answer


@dataclass
class Record:
    """Outcome of one job."""

    kind: str
    seconds: float
    valid: bool
    reason: str | None = None        # why it failed; None when it passed
    exception: bool = False
    exit_mismatch: bool = False
    fix_error: float | None = None

    @property
    def passed(self) -> bool:
        return self.reason is None


# --- running and checking a job --------------------------------------------

def execute(job, qperm):
    """Run one job; return (seconds, outputs, exit codes, exception text).

    The timed span covers the CLI calls with stdout captured, nothing else."""
    outputs, codes, error = [], [], None
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            if job.call is not None:
                module, function, args = job.call
                outputs = getattr(getattr(qperm, module), function)(*args)
            else:
                for argv in job.steps:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        try:
                            code = qperm.cli.main(list(argv))
                        except SystemExit as exc:
                            code = exc.code
                    outputs.append(buf.getvalue())
                    codes.append(0 if code is None else code)
    except Exception as exc:     # a crash is a failed job, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, outputs, codes, error


def evaluate(job, seconds, outputs, codes, error) -> Record:
    rec = Record(kind=job.kind, seconds=seconds, valid=job.valid)
    if error is not None:
        rec.reason, rec.exception = f"raised {error}", True
    elif tuple(codes) != job.expect:
        rec.reason = f"exit {tuple(codes)}, expected {job.expect}"
        rec.exit_mismatch = True
    else:
        outcome = checks.check(job, outputs)
        rec.reason, rec.fix_error = outcome.reason, outcome.fix_error
    return rec


def run_loop(workload, seed, seconds, paths, qperm, tracer=None):
    """Closed loop over whole decks until the next deck would end more than
    half a deck past ``seconds``."""
    records = []
    start = time.perf_counter()
    done = 0
    for deck in workloads.decks(workload, seed, paths):
        for job in deck:
            if tracer is not None:
                tracer.job = len(records)
            result = execute(job, qperm)
            if tracer is not None:
                tracer.job = None
            records.append(evaluate(job, *result))
            shutil.rmtree(paths.out)
            paths.out.mkdir()
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            return records


def warm_up(workload, qperm) -> None:
    for argv in workloads.WARMUP[workload]:
        with contextlib.redirect_stdout(io.StringIO()):
            qperm.cli.main(list(argv))


# --- set-up time and environment ----------------------------------------------

def measure_setup(workload: str) -> float:
    """Median time from starting a fresh interpreter until it has imported
    ``qperm.cli`` and run the workload's warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--setup-only"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit {proc.returncode}")
    return statistics.median(times)


def blas_ref_gflops(threads: int) -> float:
    out = subprocess.run([sys.executable, str(BENCH / "blas_ref.py"), str(threads)],
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)["gflops"]


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": NPROC, "cpu": cpu, "blas_threads": NPROC,
            "blas_ref_gflops": blas_ref_gflops(NPROC),
            "blas_ref_gflops_1thread": blas_ref_gflops(1)}


# --- metrics -------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(records, setup_s: float) -> dict:
    times = [r.seconds for r in records]
    errors = [r.fix_error for r in records if r.fix_error is not None]
    digits = -math.log10(max(max(errors), DIGITS_FLOOR)) if errors else 0.0
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(records) / sum(times), "1/s"),
        "job_s_p50": (percentile(times, 50), "s"),
        # a run of a few long jobs (probe-large) has no steady p90: its p90
        # is the slowest job, so such a run reports its median here
        "job_s_p90": (percentile(times, 90 if len(times) >= TAIL_MIN_JOBS else 50), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (sum(r.passed for r in records) / len(records), "ratio"),
        "fix_moment_digits": (digits, "digits"),
    }


def summary(records) -> dict:
    kinds = {}
    for r in records:
        k = kinds.setdefault(r.kind, {"jobs": 0, "failed": 0, "seconds": 0.0})
        k["jobs"] += 1
        k["seconds"] += r.seconds
        if not r.passed:
            k["failed"] += 1
            k.setdefault("first_failure", r.reason)
    return {"jobs": len(records), "job_seconds": sum(r.seconds for r in records),
            "kinds": kinds}


# --- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, warm up, print 'ready' and exit "
                             "(used to time set-up in a fresh process)")
    args = parser.parse_args(argv)

    # the program and the test oracle come from this checkout, never from
    # an installed copy
    for needed in (ROOT / "src" / "qperm" / "__init__.py", ROOT / "tests" / "nc_oracle.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed} is missing; run from a qperm checkout")
    import qperm
    import qperm.cli  # noqa: F401  (binds qperm.cli)

    if args.setup_only:
        warm_up(args.workload, qperm)
        print("ready", flush=True)
        return 0

    env = environment()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    paths = workloads.Paths(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        paths.prepare()
        warm_up(args.workload, qperm)
        tracer = restore = None
        if args.trace:
            tracer = tracing.Tracer()
            span_cost = tracer.span_cost()
            restore = tracing.install(tracer)
        try:
            records = run_loop(args.workload, args.seed, args.seconds, paths,
                               qperm, tracer)
        finally:
            if restore is not None:
                restore()
    finally:
        shutil.rmtree(paths.root, ignore_errors=True)

    if args.trace:
        jobs = len(records)
        metrics = tracing.layer_metrics(tracer.spans, jobs,
                                      sum(r.seconds for r in records), span_cost)
        metrics["cli.exit_mismatch"] = (
            sum(r.exit_mismatch for r in records) / jobs, "count/job")
        metrics["cli.exceptions"] = (sum(r.exception for r in records) / jobs, "count/job")
        metrics["convolution_probe.blas_ref_gflops"] = (env["blas_ref_gflops"], "GFLOP/s")
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "jobs": [[r.kind, r.seconds] for r in records],
            "spans": [s.to_list() for s in tracer.spans]}))
    else:
        metrics = end_to_end(records, measure_setup(args.workload))

    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary(records)}))
    print(json.dumps({
        "correct": all(r.passed for r in records if r.valid),
        "attempted": len(records),
        "failed": sum(not r.passed for r in records),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
