"""Command-line front end.

Subcommands:

    qperm basis gen --n 5 --out b5.json        write a constructed basis
    qperm basis verify b5.json                 re-check a basis file
    qperm orbitals --n 4 --m 3                 free-orbital check of all words
    qperm orbitals --n 4 --m 3 --model classical
    qperm haar --n 5 --mono "1:1,2:2,1:1,2:2"  classify + exact value
    qperm haar table --n 6                     full degree-4 class table
    qperm probe --n 5 --max-degree 4 --out r.json
    qperm probe --n 5 --max-degree 7 --verbose   one stderr line per degree

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 resource limit.
Handlers only compute and print; ``main`` maps the exceptions they let
through to codes 2 and 3, an allocation the host refuses (MemoryError)
included.  ``probe`` and ``orbitals`` check their options before they build
a model, ``probe`` on a root-of-unity grid its memory need too, and they
share one flat model per n and process (``_model``).
The environment variable QPG_THREADS caps the worker count of the underlying
BLAS (see the ``qperm`` package docstring).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from . import convolution_probe as cp, flat_model, haar_exact, magic_bases
from .errors import (BudgetExceeded, DegreeTooHigh, DimensionTooSmall,
                     EmptyMonomial, IndexOutOfRange, MemoryCap)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qperm",
        description="flat matrix models, orbitals and Haar values of the "
                    "quantum permutation group")
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="generate or verify magic bases")
    basis_sub = p_basis.add_subparsers(dest="basis_command", required=True)
    p_gen = basis_sub.add_parser("gen", help="construct a basis and write JSON")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_ver = basis_sub.add_parser("verify", help="verify a basis JSON file")
    p_ver.add_argument("path")

    p_orb = sub.add_parser("orbitals", help="free m-orbital check over all words")
    p_orb.add_argument("--n", type=int, required=True)
    p_orb.add_argument("--m", type=int, required=True)
    p_orb.add_argument("--model", choices=("flat", "classical"), default="flat")
    p_orb.add_argument("--budget", type=int, default=None,
                       help="limit on the words covered, n^(2m); above it, "
                            "exit 3 (default 10^9)")
    p_orb.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_haar = sub.add_parser("haar", help="exact Haar values of words")
    p_haar.add_argument("mode", nargs="?", choices=("table",),
                        help="'table' dumps all degree-4 classes")
    p_haar.add_argument("--n", type=int, required=True)
    p_haar.add_argument("--mono", help="word as row:col pairs, e.g. 1:1,2:2")

    p_probe = sub.add_parser("probe", help="Cesaro convolution probe")
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--max-degree", type=int, default=4)
    p_probe.add_argument("--tol", type=float, default=1e-10,
                         help="eigenvalues above 1 - sqrt(tol) count as fixed, and "
                              "each must lie within tol of 1, else inconclusive; in "
                              "(0, 1) and above 2^-108, else exit 2.  On the orbit path "
                              "the count is exact: tol is only range-checked and "
                              "quoted in a consistent verdict")
    p_probe.add_argument("--memory-cap", type=int, default=2 * 2 ** 30)
    # kept, with its one choice, for callers that still pass --method fixed_space
    p_probe.add_argument("--method", choices=("fixed_space",), default="fixed_space")
    p_probe.add_argument("--out", help="write the report JSON here")
    p_probe.add_argument("--csv", help="write fix-moment estimates as CSV here")
    p_probe.add_argument("--verbose", action="store_true",
                         help="print one progress line per degree on stderr")
    return parser


# Flat models ``_model`` keeps per process.  A model holds the n^4 entries of
# its Gram table, 16 n^4 bytes (65 kB at n = 8, 10 MB at n = 28), so a
# long-lived caller that sweeps n keeps the last few tables, not every one.
MODEL_CACHE_SIZE = 8


def _build_basis(n: int):
    if n == 4:
        return magic_bases.build_pauli_basis_4()
    return magic_bases.build_fourier_basis(n)


@functools.lru_cache(maxsize=MODEL_CACHE_SIZE)
def _model(n: int) -> flat_model.FlatModel:
    """The flat model of the constructed grid at n, which depends on n alone:
    built and checked magic once per process, then shared by ``probe`` and
    ``orbitals``.  Its grid and Gram table, the arrays the magic check ran
    on, are read-only.  A build that raises caches nothing."""
    model = flat_model.model_from_basis(_build_basis(n))
    model.basis.xi.flags.writeable = False
    model.gram.flags.writeable = False
    return model


def cmd_basis(args) -> int:
    if args.basis_command == "gen":
        basis = _build_basis(args.n)
        magic_bases.write_basis(basis, args.out)
        print(f"wrote n={basis.n} basis ({basis.kind}) to {args.out}")
        return EXIT_OK

    try:
        basis = magic_bases.read_basis(args.path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read basis: {exc}") from exc
    report = magic_bases.verify_suitably_noncommutative(basis)
    magic = "ok" if report.magic_ok else "FAIL"
    noncomm = "ok" if report.suitably_noncommutative_ok else "FAIL"
    print(f"magic: {magic} (max residual {report.max_residual:.3e}), "
          f"suitably-noncommutative: {noncomm}")
    for a, b, value, reason in report.violations[:20]:
        print(f"  violation {a} vs {b}: {value} ({reason})")
    return EXIT_OK if report.magic_ok and report.suitably_noncommutative_ok \
        else EXIT_VERIFY


def cmd_orbitals(args) -> int:
    budget = args.budget if args.budget is not None else flat_model.DEFAULT_BUDGET
    flat_model.scan_start(args.n, args.m, budget)     # refuse before any model
    if args.model == "classical":
        cm = flat_model.classical_model(args.n)
        report = flat_model.check_free_orbitals_classical(cm, args.m, budget=budget)
    else:
        report = flat_model.check_free_orbitals(_model(args.n), args.m, budget=budget)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        status = "pass" if report.passed else "FAIL"
        print(f"{args.model} model n={report.n} m={report.m}: {status} "
              f"({report.total} words)")
        if report.max_zero is not None:
            print(f"  min |coeff| over clash-free words: {report.min_nonzero:.6e}")
            print(f"  max |coeff| over clashing words:   {report.max_zero:.6e}")
            ratio = report.gap_ratio()
            if ratio is not None:
                print(f"  gap ratio: {ratio:.3e}")
        for word in report.violations[:10]:
            print(f"  violation: {flat_model.format_monomial(word)}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_haar(args) -> int:
    if args.mode == "table":
        if args.mono:
            raise ValueError("--mono does not apply to the 'table' mode")
        if args.n < 5:
            raise ValueError("the class table needs --n >= 5")
        print(json.dumps(haar_exact.haar_table_dict(args.n)))
        return EXIT_OK
    if not args.mono:
        raise ValueError("provide --mono or the 'table' mode")
    mono = flat_model.parse_monomial(args.mono)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", haar_exact.BoundaryDimensionWarning)
        tag = haar_exact.canonicalize(mono, args.n)
        value = haar_exact.haar_value_snplus(mono, args.n)
    print(f"{tag.upper()} = {value}")
    if args.n >= 5 and tag in haar_exact.DEGREE_CLASS_TAGS[4]:
        lo, hi = haar_exact.exotic_bounds(args.n).intervals[tag]
        print(f"exotic-bound interval: ({lo}, {hi})")
    if args.n == 4 and tag in haar_exact.DEGREE_CLASS_TAGS[4]:
        rep = haar_exact.n4_boundary_report()
        print("n=4 boundary diagnostic (outside the n>=5 bounds range):")
        print(f"  degree-4 system value h(u11 u22 u11 u22) = {rep.formula_value}")
        print(f"  flat-model trace tr(v11 v22 v11 v22)      = {rep.model_trace}")
        print(f"  both strictly positive: {rep.consistent}")
    return EXIT_OK


def _print_degree(degree, reps: int | None, seconds: float) -> None:
    """The ``probe --verbose`` line of one finished degree: on the orbit
    path its labels, orbits and DFT gate residual, on the others its
    rotation-orbit representatives and sector sides."""
    gap = "none" if degree.spectral_gap is None else f"{degree.spectral_gap:.6g}"
    if degree.reduction == "orbits":
        labels, orbits = degree.sectors
        solved = (f"{labels} labels, {orbits} orbits, "
                  f"ghat residual {degree.traciality_residual:.1e}")
    else:
        solved = f"{reps} reps, sectors {degree.sectors}"
    print(f"degree {degree.m}: {degree.reduction}, side {degree.block_size}, "
          f"{solved}, {seconds:.3f} s, fixed {degree.fixed_space_dim}, gap {gap}",
          file=sys.stderr, flush=True)


def _require_directory_of(path: str) -> None:
    """Raise an OSError unless ``path`` can name a file to write: the
    directory it would go into exists and ``path`` is not a directory."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"cannot write {path}: no directory {directory}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")


def cmd_probe(args) -> int:
    for path in (args.out, args.csv):     # before any work, not after it
        if path:
            _require_directory_of(path)
    # ProbeConfig refuses bad settings; it comes before any model is built
    cfg = cp.ProbeConfig(max_degree=args.max_degree,
                         tol_converge=args.tol,
                         memory_cap=args.memory_cap)
    if args.n >= 5:             # a root-of-unity grid: its need reads n and the degree alone
        cp.refuse_over_cap(args.n, cfg)
    report = cp.inner_faithfulness_report(_model(args.n), cfg,
                                          progress=_print_degree if args.verbose else None)
    payload = json.dumps(report.to_dict())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote probe report to {args.out}")
    else:
        print(payload)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.fix_moment_csv())
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"basis": cmd_basis, "orbitals": cmd_orbitals,
               "haar": cmd_haar, "probe": cmd_probe}[args.command]
    # the one place exceptions become exit codes; any other exception is a bug
    try:
        return handler(args)
    except (BudgetExceeded, MemoryCap, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DimensionTooSmall, IndexOutOfRange, DegreeTooHigh, EmptyMonomial,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
