"""Output checks, run after each job and outside its timed span.

Every reference comes from somewhere other than the code path being timed:
closed forms written out here, the independent noncrossing-partition
integrator in ``tests/nc_oracle.py``, and numpy evaluations of the Fourier
grid formula.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FIX_TOL = 1e-6


class Outcome(NamedTuple):
    reason: str | None           # None when the output is right
    fix_error: float | None = None   # worst |fix-moment estimate - reference|


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "nc_oracle", ROOT / "tests" / "nc_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = None


def oracle_haar_value(word, n) -> Fraction:
    global _ORACLE
    if _ORACLE is None:
        _ORACLE = _load_oracle()
    return _ORACLE.haar_value(word, n)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def stirling2(m: int, k: int) -> int:
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** m
               for j in range(k + 1)) // math.factorial(k)


def classical_fix_count(m: int, n: int) -> int:
    """Set partitions of m points into at most n blocks: h(fix^m) on S_n."""
    return sum(stirling2(m, k) for k in range(1, min(m, n) + 1))


def fix_moment_reference(n: int, m: int) -> int:
    """Fix moment the probe limit must reach: Catalan numbers for the 4x4
    grid, the S_n count for the Fourier grids (which are not inner
    faithful)."""
    return catalan(m) if n == 4 else classical_fix_count(m, n)


def degree4_values(n: int) -> dict:
    r = n * (n - 1) * (n * n - 3 * n + 1)
    return {"a1": Fraction(2 * n - 5, r), "a2": Fraction(n - 3, r),
            "a3": Fraction(n - 2, r), "a4": Fraction(-1, r),
            "a5": Fraction(-(n - 3), (n - 2) * r),
            "a6": Fraction(1, (n - 2) * r), "a7": Fraction(n, (n - 2) * r)}


def fourier_grid(n: int):
    """<e_p, xi_ij> of the root-of-unity grid, shape (n, n, n)."""
    import numpy as np
    i = np.arange(1, n + 1)[:, None, None]
    j = np.arange(1, n + 1)[None, :, None]
    p = np.arange(1, n + 1)[None, None, :]
    k = np.where(p == 1, (1 - j) % n, np.where(p == n, (i - 1) % n, (p * (i - j)) % n))
    return np.exp(2j * math.pi * k / n) / math.sqrt(n)


# --- per-kind checks ----------------------------------------------------------

def _check_probe(job, outputs) -> Outcome:
    n, degree = job.param("n"), job.param("degree")
    mode = job.param("mode")
    stdout = outputs[0]
    if mode == "out":
        report = json.loads(Path(job.files[0]).read_text())
    else:
        report = json.loads(stdout.splitlines()[0])
    if report["n"] != n or len(report["degrees"]) != degree:
        return Outcome(f"report covers n={report['n']}, "
                       f"{len(report['degrees'])} degrees")
    estimates = {d["m"]: d["fix_moment_estimate"] for d in report["degrees"]}
    if mode == "csv":
        with open(job.files[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        csv_est = {int(row["m"]): float(row["estimate"]) for row in rows}
        if csv_est != estimates:
            return Outcome("CSV estimates differ from the report")
    worst = 0.0
    for m in range(1, degree + 1):
        err = abs(estimates[m] - fix_moment_reference(n, m))
        worst = max(worst, err)
        if not err <= FIX_TOL:
            return Outcome(f"degree {m} fix moment off by {err:.3g}", worst)
    if not stdout.rstrip().splitlines()[-1].startswith("verdict: "):
        return Outcome("no verdict line", worst)
    return Outcome(None, worst)


def _check_haar_mono(job, outputs) -> Outcome:
    n, word = job.param("n"), job.param("word")
    tag, _, value = outputs[0].splitlines()[0].partition(" = ")
    want = oracle_haar_value(word, n)
    if Fraction(value) != want:
        return Outcome(f"{tag} = {value}, oracle {want}")
    return Outcome(None)


def _check_haar_table(job, outputs) -> Outcome:
    n = job.param("n")
    table = json.loads(outputs[0])
    if table["denominator_r"] != n * (n - 1) * (n * n - 3 * n + 1):
        return Outcome("wrong r(n)")
    for tag, want in degree4_values(n).items():
        num, den = table["classes"][tag]["value"]
        if Fraction(num, den) != want:
            return Outcome(f"{tag} = {num}/{den}, closed form {want}")
    return Outcome(None)


def _check_orbitals(job, outputs) -> Outcome:
    n, m = job.param("n"), job.param("m")
    words = n ** (2 * m)
    passed = job.expect[0] == 0
    if job.param("json"):
        report = json.loads(outputs[0])
        ok = (report["total_words"], report["pass"]) == (words, passed)
    else:
        status = "pass" if passed else "FAIL"
        model = job.kind.split("-")[1]
        ok = outputs[0].splitlines()[0] == f"{model} model n={n} m={m}: {status} ({words} words)"
    return Outcome(None if ok else f"scan did not report {words} words, passed={passed}")


def _check_basis(job, outputs) -> Outcome:
    import numpy as np
    n = job.param("n")
    line = outputs[1].strip()
    if not (line.startswith("magic: ok ") and line.endswith("suitably-noncommutative: ok")):
        return Outcome(f"verify said {line!r}")
    data = json.loads(Path(job.files[0]).read_text())
    xi = np.array(data["xi"])
    got = xi[..., 0] + 1j * xi[..., 1]
    err = float(np.abs(got - fourier_grid(n)).max()) if got.shape == (n, n, n) else math.inf
    if not err <= 1e-12:
        return Outcome(f"written grid off the closed form by {err:.3g}")
    return Outcome(None)


def _check_fix_moment(job, result) -> Outcome:
    err = abs(result - 14)
    if result != 14:
        return Outcome(f"fix_moment({job.param('n')}, 4) = {result}", float(err))
    return Outcome(None, float(err))


def _check_rejected(job, outputs) -> Outcome:
    return Outcome(None)     # the expected exit code is the whole check


CHECKS = {
    "probe": _check_probe,
    "probe-bad-csv": _check_rejected,
    "haar-mono": _check_haar_mono,
    "haar-table": _check_haar_table,
    "orbitals-flat": _check_orbitals,
    "orbitals-classical": _check_orbitals,
    "basis": _check_basis,
    "basis-bad": _check_rejected,
    "fix-moment": _check_fix_moment,
}


def check(job, outputs) -> Outcome:
    """Compare a finished job's outputs with its reference.

    ``outputs`` is the list of captured stdouts of the steps, or the return
    value of a library call."""
    try:
        return CHECKS[job.kind](job, outputs)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return Outcome(f"unreadable output: {type(exc).__name__}: {exc}")
