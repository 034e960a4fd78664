"""Command-line front end.

Subcommands:

    qperm basis gen --n 5 --out b5.json        write a constructed basis
    qperm basis verify b5.json                 re-check a basis file
    qperm orbitals --n 4 --m 3                 exhaustive free-orbital scan
    qperm orbitals --n 4 --m 3 --model classical
    qperm haar --n 5 --mono "1:1,2:2,1:1,2:2"  classify + exact value
    qperm haar table --n 6                     full degree-4 class table
    qperm probe --n 5 --max-degree 4 --out r.json

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 resource limit.
The environment variable QPG_THREADS caps the worker count of the underlying
BLAS (see the ``qperm`` package docstring).
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


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
    p_ver.add_argument("--tol", type=float, default=1e-12)

    p_orb = sub.add_parser("orbitals", help="exhaustive m-orbital scan")
    p_orb.add_argument("--n", type=int, required=True)
    p_orb.add_argument("--m", type=int, required=True)
    p_orb.add_argument("--model", choices=("flat", "classical"), default="flat")
    p_orb.add_argument("--budget", type=int, default=None)
    p_orb.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_haar = sub.add_parser("haar", help="exact Haar values of words")
    p_haar.add_argument("mode", nargs="?", choices=("table",),
                        help="'table' dumps all degree-4 classes")
    p_haar.add_argument("--n", type=int, required=True)
    p_haar.add_argument("--mono", help="word as row:col pairs, e.g. 1:1,2:2")

    p_probe = sub.add_parser("probe", help="Cesaro convolution probe")
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--max-degree", type=int, default=4)
    p_probe.add_argument("--tol", type=float, default=1e-10)
    p_probe.add_argument("--memory-cap", type=int, default=2 * 2 ** 30)
    p_probe.add_argument("--method", choices=("fixed_space",), default="fixed_space")
    p_probe.add_argument("--out", help="write the report JSON here")
    p_probe.add_argument("--csv", help="write fix-moment estimates as CSV here")
    return parser


def _build_basis(n: int):
    from . import magic_bases
    if n == 4:
        return magic_bases.build_pauli_basis_4()
    return magic_bases.build_fourier_basis(n)


def cmd_basis(args) -> int:
    from . import magic_bases
    from .errors import DimensionTooSmall
    if args.basis_command == "gen":
        try:
            basis = _build_basis(args.n)
        except DimensionTooSmall as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        try:
            magic_bases.write_basis(basis, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote n={basis.n} basis ({basis.kind}) to {args.out}")
        return EXIT_OK

    try:
        basis = magic_bases.read_basis(args.path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read basis: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    from . import flat_model
    from .errors import BudgetExceeded, DimensionTooLarge, DimensionTooSmall
    try:
        if args.model == "classical":
            cm = flat_model.classical_model(args.n)
            report = flat_model.check_free_orbitals_classical(cm, args.m)
        else:
            model = flat_model.model_from_basis(_build_basis(args.n))
            budget = args.budget if args.budget is not None else flat_model.DEFAULT_BUDGET
            report = flat_model.check_free_orbitals(model, args.m, budget=budget)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DimensionTooLarge, DimensionTooSmall, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
    import warnings
    from fractions import Fraction
    from . import haar_exact, flat_model
    from .errors import DegreeTooHigh, IndexOutOfRange
    if args.mode == "table":
        if args.n < 5:
            print("error: the class table needs --n >= 5", file=sys.stderr)
            return EXIT_INPUT
        print(json.dumps(haar_exact.haar_table_dict(args.n)))
        return EXIT_OK
    if not args.mono:
        print("error: provide --mono or the 'table' mode", file=sys.stderr)
        return EXIT_INPUT
    try:
        mono = flat_model.parse_monomial(args.mono)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", haar_exact.BoundaryDimensionWarning)
            cls = haar_exact.canonicalize(mono, args.n)
            value = haar_exact.haar_value_snplus(mono, args.n)
    except (DegreeTooHigh, IndexOutOfRange, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"{cls.tag.upper()} = {value}")
    if args.n >= 5 and cls.tag in haar_exact.DEGREE_CLASS_TAGS[4]:
        lo, hi = haar_exact.exotic_bounds(args.n).intervals[cls.tag]
        print(f"exotic-bound interval: ({lo}, {hi})")
    if args.n == 4 and cls.tag in haar_exact.DEGREE_CLASS_TAGS[4]:
        rep = haar_exact.n4_boundary_report()
        print("n=4 boundary diagnostic (outside the n>=5 bounds range):")
        print(f"  degree-4 system value h(u11 u22 u11 u22) = {rep.formula_value}")
        print(f"  flat-model trace tr(v11 v22 v11 v22)      = {rep.model_trace}")
        print(f"  both strictly positive: {rep.consistent}")
    return EXIT_OK


def cmd_probe(args) -> int:
    from . import convolution_probe as cp, flat_model
    from .errors import DimensionTooSmall, MemoryCap
    try:
        model = flat_model.model_from_basis(_build_basis(args.n))
        cfg = cp.ProbeConfig(max_degree=args.max_degree,
                             tol_converge=args.tol,
                             memory_cap=args.memory_cap,
                             method=args.method)
        report = cp.inner_faithfulness_report(model, cfg)
    except MemoryCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DimensionTooSmall, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = json.dumps(report.to_dict())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote probe report to {args.out}")
    else:
        print(payload)
    if args.csv:
        try:
            with open(args.csv, "w") as fh:
                fh.write(report.fix_moment_csv())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    print(f"verdict: {report.verdict}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"basis": cmd_basis, "orbitals": cmd_orbitals,
               "haar": cmd_haar, "probe": cmd_probe}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
