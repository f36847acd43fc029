"""Command-line front end.

Exit codes: 0 on success (and on a passing identity check), 1 when a
check fails, 2 on usage or parse errors and when memory or the
interpreter's recursion limit runs out, 130 on an interrupt.  A
positional input of "-" reads from standard input.
"""

from __future__ import annotations

import argparse
import sys

from .anf import ZhegalkinPoly
from .bench import BENCH_MAX_ARITY, BENCH_MIN_ARITY, run_transform_benchmark
from .exprs import ParseError, expr_to_anf, parse_expr
from .integration import (
    Face,
    integrate_boundary,
    integrate_face,
    integrate_top,
    stokes_check,
    stokes_sweep,
)
from .textio import _TABLE_TEXT, parse_anf, parse_form, parse_table


def _read_arg(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _require_n(args) -> int:
    if args.n is None:
        raise ValueError("--n is required for this input")
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    return args.n


def _face_arg(text: str) -> Face:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected I,J")
    try:
        axis, level = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers I,J") from None
    return Face(axis, level)


def _read_poly(args) -> ZhegalkinPoly:
    """The polynomial in args.input: an n:HEX table, else canonical ANF,
    else an expression; the last two need --n."""
    text = _read_arg(args.input)
    if _TABLE_TEXT.match(text):
        table = parse_table(text)
        if args.n is not None and args.n != table.arity:
            raise ValueError(
                f"--n {args.n} conflicts with table arity {table.arity}"
            )
        return ZhegalkinPoly.from_truth_table(table)
    n = _require_n(args)
    try:
        return parse_anf(text, n)
    except ParseError as anf_err:
        try:
            return expr_to_anf(parse_expr(text), n)
        except ParseError as expr_err:
            raise ValueError(
                f"cannot parse input as ANF ({anf_err}) or expression ({expr_err})"
            ) from None


def _cmd_anf(args) -> int:
    print(_read_poly(args))
    return 0


def _cmd_table(args) -> int:
    print(_read_poly(args).to_truth_table())
    return 0


def _cmd_derive(args) -> int:
    n = _require_n(args)
    poly = parse_anf(_read_arg(args.input), n)
    print(poly.partial(args.var))
    return 0


def _cmd_d(args) -> int:
    n = _require_n(args)
    form = parse_form(_read_arg(args.input), n)
    print(form.d())
    return 0


def _cmd_wedge(args) -> int:
    n = _require_n(args)
    if args.a == "-" and args.b == "-":
        raise ValueError("only one positional argument may read standard input")
    a = parse_form(_read_arg(args.a), n)
    b = parse_form(_read_arg(args.b), n)
    print(a.wedge(b))
    return 0


def _cmd_integrate(args) -> int:
    n = _require_n(args)
    if args.top:
        form = parse_form(_read_arg(args.input), n, degree=n)
        print(integrate_top(form))
    else:
        form = parse_form(_read_arg(args.input), n, degree=n - 1)
        if args.face is not None:
            print(integrate_face(form, args.face))
        else:
            print(integrate_boundary(form))
    return 0


def _cmd_stokes(args) -> int:
    n = _require_n(args)
    sweep_mode = args.exhaustive or args.random is not None
    if args.form is not None:
        if sweep_mode:
            raise ValueError("give either a form or a sweep mode, not both")
        form = parse_form(_read_arg(args.form), n, degree=n - 1)
        report = stokes_check(form)
        print(report)
        return 0 if report.passed else 1
    if args.exhaustive and args.random is not None:
        raise ValueError("choose one of --exhaustive or --random")
    if not sweep_mode:
        raise ValueError("give a form, or --exhaustive, or --random COUNT")
    if args.exhaustive:
        summary = stokes_sweep(n, exhaustive=True)
    else:
        summary = stokes_sweep(n, count=args.random, seed=args.seed)
    print(summary)
    return 0 if summary.failed == 0 else 1


def _cmd_bench(args) -> int:
    report = run_transform_benchmark(args.n, args.reps)
    print(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhegalkin",
        description=(
            "Boolean-function calculus: ANF conversion, derivatives, forms, "
            "Hamming-cube integrals, and a boundary-identity checker."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anf", help="convert an n:HEX table, ANF or expression to ANF")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("input", help='"n:HEX", ANF text, expression like "x1 | x2", or -')
    p.set_defaults(handler=_cmd_anf)

    p = sub.add_parser("table", help="convert an expression or ANF to n:HEX")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("input", help="expression or ANF text, or -")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("derive", help="Boolean partial derivative of an ANF")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("--var", type=int, required=True, help="variable index (1-based)")
    p.add_argument("input", help="ANF text, or -")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("d", help="exterior derivative of a form")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("input", help="form text (bare ANF = 0-form), or -")
    p.set_defaults(handler=_cmd_d)

    p = sub.add_parser("wedge", help="wedge product of two forms")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("a", help="left form text")
    p.add_argument("b", help="right form text")
    p.set_defaults(handler=_cmd_wedge)

    p = sub.add_parser("integrate", help="integrate a form over cube or boundary")
    p.add_argument("--n", type=int, help="number of variables")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--top", action="store_true", help="whole cube (degree n)")
    mode.add_argument("--face", type=_face_arg, metavar="I,J", help="one face (degree n-1)")
    mode.add_argument("--boundary", action="store_true", help="all faces (degree n-1)")
    p.add_argument("input", help="form text, or -")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("stokes", help="check the boundary identity")
    p.add_argument("--n", type=int, help="number of variables")
    p.add_argument("--exhaustive", action="store_true", help="sweep every form (n <= 2)")
    p.add_argument("--random", type=int, metavar="COUNT", help="sweep COUNT random forms")
    p.add_argument("--seed", type=int, default=0, help="seed for --random (default 0)")
    p.add_argument("form", nargs="?", help="single (n-1)-form to check, or -")
    p.set_defaults(handler=_cmd_stokes)

    p = sub.add_parser("bench", help="time the packed table<->ANF transform")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"number of variables ({BENCH_MIN_ARITY}..{BENCH_MAX_ARITY})",
    )
    p.add_argument("--reps", type=int, default=5, help="repetitions (default 5)")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, RecursionError) as exc:
        # RecursionError is a RuntimeError, which means a failed identity
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
