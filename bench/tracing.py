"""Spans around calls into qperm's public functions, for the traced run.

``install`` rebinds the functions and methods named in ``TARGETS`` to timing
wrappers: the module attribute, every other ``qperm`` module attribute bound
to the same object by ``from .x import y``, and class attributes for
methods.  Each call becomes a span with a parent link and the index of the
job it ran in.  Spans stay in memory until the run writes them out.

Only public entry points are wrapped.  Per-word inner helpers such as
``flat_model.classical_zero`` run millions of times per scan and are left
alone, so their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

CALIBRATION_CALLS = 20000

MODULES = ("magic_bases", "flat_model", "haar_exact", "convolution_probe", "cli")

TARGETS = {
    "magic_bases": ("build_fourier_basis", "gram_table", "verify_magic",
                    "verify_suitably_noncommutative", "read_basis", "write_basis"),
    "flat_model": ("model_from_basis", "check_free_orbitals", "classical_model",
                   "check_free_orbitals_classical"),
    "haar_exact": ("canonicalize", "haar_value_snplus", "class_value", "fix_moment",
                   "exotic_bounds", "haar_table_dict"),
    "convolution_probe": ("trace_state", "cesaro_limit", "inner_faithfulness_report",
                          "StateTensor.rotated", "ProbeReport.to_dict"),
    "cli": ("main",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, end, parent, job, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.attrs = attrs

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.attrs]


# --- counts derived from arguments and results at the span boundary ----------

def cesaro_matmuls(method: str, iterations: int, curve: list) -> int:
    """Matrix products one ``cesaro_limit`` call performed, from its result.

    Doubling does two per step (P @ P and P @ A) plus one closing P @ A when
    the power sequence settled or began to drift; literal does one per
    averaged power; fixed_space does none of full size."""
    if method == "literal":
        return max(iterations - 1, 0)
    if method != "doubling" or not curve:
        return 0
    pdiffs = [p for _, _, p in curve]
    collapsed = pdiffs[-1] < 1e-13 or (
        len(pdiffs) >= 3 and pdiffs[-1] > pdiffs[-2] > pdiffs[-3])
    return 2 * len(curve) + int(collapsed)


def _cesaro_attrs(args, kwargs, result):
    T = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    method = cfg.method if cfg is not None else "doubling"
    size = T.entries.shape[0]
    matmuls = cesaro_matmuls(method, result.iterations, result.curve)
    return {"doublings": len(result.curve) if method == "doubling" else 0,
            "matmuls": matmuls, "gflop": matmuls * 8 * size ** 3 / 1e9,
            "unconverged": int(not result.converged)}


def _trace_state_attrs(args, kwargs, result):
    return {"bytes": int(result.entries.nbytes)}


def _orbitals_attrs(args, kwargs, result):
    return {"words": result.total}


def _fix_moment_attrs(args, kwargs, result):
    n, k = args[:2]
    return {"tuples": n ** k}


ATTRS = {
    "convolution_probe.cesaro_limit": _cesaro_attrs,
    "convolution_probe.trace_state": _trace_state_attrs,
    "flat_model.check_free_orbitals": _orbitals_attrs,
    "flat_model.check_free_orbitals_classical": _orbitals_attrs,
    "haar_exact.fix_moment": _fix_moment_attrs,
}


class Tracer:
    """Collects spans; ``job`` is set by the caller before each job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, None, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def span_cost(self) -> float:
        """Seconds one wrapped call adds over a plain call, measured here."""
        def noop():
            return None
        traced = self.wrap("calibration", noop)
        saved = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        wrapped = time.perf_counter() - t0
        del self.spans[saved:]
        return max(wrapped - plain, 0.0) / CALIBRATION_CALLS


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    mods = {name: importlib.import_module(f"qperm.{name}") for name in MODULES}
    namespaces = [m for name, m in sys.modules.items()
                  if name == "qperm" or name.startswith("qperm.")]
    undo = []
    for modname, quals in TARGETS.items():
        for qual in quals:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mods[modname], owner_name) if owner_name else mods[modname]
            original = owner.__dict__[attr]
            traced = tracer.wrap(f"{modname}.{qual}", original)
            holders = [owner] + [ns for ns in namespaces if ns is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        undo.append((holder, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
    return restore


# --- per-layer metrics ---------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Calls are nested and sequential, so children of one span never overlap
    and their durations add."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], jobs: int, job_seconds: float,
                  span_cost: float) -> dict:
    """Per-job totals per wrapped function, computed counts, and the
    whole-run trace figures.  Returns {name: (value, unit)}."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    covered = 0.0
    for span, own in zip(spans, selfs):
        agg = by_name.setdefault(span.name, {"self": 0.0, "total": 0.0, "calls": 0})
        dur = span.end - span.start
        agg["self"] += own
        agg["total"] += dur
        agg["calls"] += 1
        for key, value in (span.attrs or {}).items():
            if key == "bytes":
                agg["bytes_max"] = max(agg.get("bytes_max", 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
        if span.parent is None:
            covered += dur

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    per_job = 1.0 / max(jobs, 1)
    out = {}
    for modname, quals in TARGETS.items():
        for qual in quals:
            name = f"{modname}.{qual}"
            out[f"{name}.self_s"] = (get(name, "self") * per_job, "s/job")
    cp = "convolution_probe.cesaro_limit"
    for key in ("doublings", "matmuls", "unconverged"):
        out[f"{cp}.{key}"] = (get(cp, key) * per_job, "count/job")
    out[f"{cp}.gflop"] = (get(cp, "gflop") * per_job, "GFLOP/job")
    cp_self = get(cp, "self")
    out[f"{cp}.gflops"] = (get(cp, "gflop") / cp_self if cp_self else 0.0, "GFLOP/s")
    ts = "convolution_probe.trace_state"
    out[f"{ts}.calls"] = (get(ts, "calls") * per_job, "count/job")
    out[f"{ts}.bytes_max"] = (get(ts, "bytes_max"), "bytes")
    out["magic_bases.verify_magic.calls"] = (
        get("magic_bases.verify_magic", "calls") * per_job, "count/job")
    for name in ("flat_model.check_free_orbitals",
                 "flat_model.check_free_orbitals_classical"):
        total = get(name, "total")
        out[f"{name}.words"] = (get(name, "words") * per_job, "count/job")
        out[f"{name}.words_per_s"] = (get(name, "words") / total if total else 0.0,
                                      "1/s")
    for name in ("haar_exact.canonicalize", "haar_exact.class_value"):
        out[f"{name}.calls"] = (get(name, "calls") * per_job, "count/job")
    out["haar_exact.fix_moment.tuples"] = (
        get("haar_exact.fix_moment", "tuples") * per_job, "count/job")
    out["cli.main.calls"] = (get("cli.main", "calls") * per_job, "count/job")
    out["trace.overhead_s"] = (len(spans) * span_cost * per_job, "s/job")
    out["trace.coverage"] = (covered / job_seconds if job_seconds else 0.0, "ratio")
    return out
