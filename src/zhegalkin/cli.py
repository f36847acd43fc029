"""Command-line front end: each subcommand's handler returns its value,
and `main` alone prints it and picks the exit code.

Exit codes: 0 on success, 1 when a check fails (a Stokes report whose
`passed` is false, or bench's round trip), 2 on usage or parse errors and
when memory or the interpreter's recursion limit runs out, 130 on an
interrupt, 141 when standard output is closed.  A positional input of "-"
reads from standard input.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .anf import TruthTable, ZhegalkinPoly
from .bench import BENCH_MAX_ARITY, BENCH_MIN_ARITY, TransformBenchReport, run_transform_benchmark
from .exprs import ParseError, expr_to_anf, parse_expr
from .forms import KForm
from .integration import (
    StokesReport,
    SweepSummary,
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


def _face_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected I,J")
    try:
        axis, level = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected integers I,J") from None
    return axis, level


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


def _cmd_table(args) -> TruthTable:
    return _read_poly(args).to_truth_table()


def _cmd_derive(args) -> ZhegalkinPoly:
    n = _require_n(args)
    return parse_anf(_read_arg(args.input), n).partial(args.var)


def _cmd_d(args) -> KForm:
    n = _require_n(args)
    return parse_form(_read_arg(args.input), n).d()


def _cmd_wedge(args) -> KForm:
    n = _require_n(args)
    if args.a == "-" and args.b == "-":
        raise ValueError("only one positional argument may read standard input")
    return parse_form(_read_arg(args.a), n).wedge(parse_form(_read_arg(args.b), n))


def _cmd_integrate(args) -> int:
    n = _require_n(args)
    if args.top:
        return integrate_top(parse_form(_read_arg(args.input), n, degree=n))
    form = parse_form(_read_arg(args.input), n, degree=n - 1)
    if args.face is not None:
        return integrate_face(form, args.face)
    return integrate_boundary(form)


def _cmd_stokes(args) -> StokesReport | SweepSummary:
    n = _require_n(args)
    if args.seed is not None and args.random is None:
        # argparse cannot tie --seed to one member of the mode group
        raise ValueError("--seed applies only to --random")
    if args.form is not None:
        return stokes_check(parse_form(_read_arg(args.form), n, degree=n - 1))
    if args.exhaustive:
        return stokes_sweep(n, exhaustive=True)
    return stokes_sweep(n, count=args.random, seed=args.seed or 0)


def _cmd_bench(args) -> TransformBenchReport:
    return run_transform_benchmark(args.n, args.reps)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhegalkin",
        description=(
            "Boolean-function calculus: ANF conversion, derivatives, forms, "
            "Hamming-cube integrals, and a boundary-identity checker."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand but bench takes --n as an option; bench requires it
    n_option = argparse.ArgumentParser(add_help=False)
    n_option.add_argument("--n", type=int, help="number of variables")
    add_parser = partial(sub.add_parser, parents=[n_option])

    p = add_parser("anf", help="convert an n:HEX table, ANF or expression to ANF")
    p.add_argument("input", help='"n:HEX", ANF text, expression like "x1 | x2", or -')
    p.set_defaults(handler=_read_poly)

    p = add_parser("table", help="convert an expression or ANF to n:HEX")
    p.add_argument("input", help="expression or ANF text, or -")
    p.set_defaults(handler=_cmd_table)

    p = add_parser("derive", help="Boolean partial derivative of an ANF")
    p.add_argument("--var", type=int, required=True, help="variable index (1-based)")
    p.add_argument("input", help="ANF text, or -")
    p.set_defaults(handler=_cmd_derive)

    p = add_parser("d", help="exterior derivative of a form")
    p.add_argument("input", help="form text (bare ANF = 0-form), or -")
    p.set_defaults(handler=_cmd_d)

    p = add_parser("wedge", help="wedge product of two forms")
    p.add_argument("a", help="left form text")
    p.add_argument("b", help="right form text")
    p.set_defaults(handler=_cmd_wedge)

    p = add_parser("integrate", help="integrate a form over cube or boundary")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--top", action="store_true", help="whole cube (degree n)")
    mode.add_argument("--face", type=_face_arg, metavar="I,J", help="one face (degree n-1)")
    mode.add_argument("--boundary", action="store_true", help="all faces (degree n-1)")
    p.add_argument("input", help="form text, or -")
    p.set_defaults(handler=_cmd_integrate)

    p = add_parser("stokes", help="check the boundary identity")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true", help="sweep every form (n <= 2)")
    mode.add_argument("--random", type=int, metavar="COUNT", help="sweep COUNT random forms")
    mode.add_argument("form", nargs="?", help="single (n-1)-form to check, or -")
    p.add_argument("--seed", type=int, help="seed for --random (default 0)")
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
    args = _build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        print(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit cannot raise again, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # bench's round-trip check; RecursionError, a subclass, is caught above
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    # only the Stokes reports have `passed`; false is a failed identity check
    return 0 if getattr(result, "passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
