import contextlib
import io
import os
import random
import re
import resource
import shlex
import sys
import time
import types
from datetime import timedelta
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zhegalkin
from zhegalkin import TruthTable, bench, cli, integration, parse_anf, parse_form, parse_table
from zhegalkin.cli import main

from helpers import random_poly, run_module, run_python


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def test_anf_from_expression(capsys):
    code, out, _ = run_cli(capsys, "anf", "--n", "2", "x1 | x2")
    assert code == 0 and out == "x1 + x2 + x1*x2"


def test_anf_from_table(capsys):
    code, out, _ = run_cli(capsys, "anf", "2:8")
    assert code == 0 and out == "x1*x2"


def test_anf_arity_error(capsys):
    code, out, err = run_cli(capsys, "anf", "--n", "2", "x1 & x9")
    assert code == 2 and out == "" and "x9" in err


def test_anf_requires_n_for_expressions(capsys):
    code, _, err = run_cli(capsys, "anf", "x1 & x2")
    assert code == 2 and "--n" in err


def test_anf_table_arity_conflict(capsys):
    code, _, err = run_cli(capsys, "anf", "--n", "3", "2:8")
    assert code == 2 and "conflicts" in err


def test_anf_reads_the_anf_it_prints(capsys):
    rng = random.Random(8)
    for n in range(1, 6):
        for _ in range(20):
            text = str(random_poly(rng, n))
            assert run_cli(capsys, "anf", "--n", str(n), text) == (0, text, "")
    code, out, _ = run_cli(capsys, "anf", "--n", "3", "x1*x2")
    assert code == 0 and out == "x1*x2"


def test_anf_long_flat_chain(capsys):
    code, out, _ = run_cli(capsys, "anf", "--n", "1", " ^ ".join(["x1"] * 1000))
    assert code == 0 and out == "0"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_anf_product_over_the_term_pair_budget():
    # ~10^9 term pairs at n=30 are refused before the fold; the child's
    # 1 GiB address-space cap and the timeout keep a regression from
    # taking the host's memory
    low = "|".join(f"x{i}" for i in range(1, 16))
    high = "|".join(f"x{i}" for i in range(16, 31))
    start = time.perf_counter()
    done = run_module("anf", "--n", "30", f"({low}) & ({high})",
                      timeout=60, preexec_fn=_cap_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert "term-pair budget 2^24" in done.stderr
    assert time.perf_counter() - start < 2


def test_wedge_over_the_coefficient_pair_budget():
    # two 4-forms with 5000 coefficients each: 25M coefficient pairs, about
    # 14M of them disjoint, are refused before the loop
    keys = (",".join(map(str, c)) for c in islice(combinations(range(1, 31), 4), 5000))
    form = " + ".join(f"(1)*d{{{key}}}" for key in keys)
    start = time.perf_counter()
    done = run_module("wedge", "--n", "30", form, form,
                      timeout=60, preexec_fn=_cap_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert "coefficient-pair budget 2^24" in done.stderr
    assert time.perf_counter() - start < 2


def test_anf_non_ascii_digits_are_parse_errors(capsys):
    for text in ("\u00b2:1", "x\u00b2", "x\u0663"):
        code, out, err = run_cli(capsys, "anf", "--n", "3", text)
        assert code == 2 and out == "" and "position" in err


def test_table_from_anf(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "x1*x2")
    assert code == 0 and out == "2:8"


def test_table_from_expression(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "x1 ^ x2")
    assert code == 0 and out == "2:6"
    code, out, _ = run_cli(capsys, "table", "--n", "1", "0")
    assert code == 0 and out == "1:0"


def test_table_reports_both_parse_failures(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "2", "x1 +* x2")
    assert code == 2 and "ANF" in err and "expression" in err


def test_derive(capsys):
    code, out, _ = run_cli(capsys, "derive", "--n", "3", "--var", "1", "x1*x2 + x3")
    assert code == 0 and out == "x2"
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--var", "2", "x1")
    assert code == 0 and out == "0"
    code, _, _ = run_cli(capsys, "derive", "--n", "2", "--var", "3", "x1")
    assert code == 2


def test_d(capsys):
    code, out, _ = run_cli(capsys, "d", "--n", "2", "x1*x2")
    assert code == 0 and out == "(x2)*d{1} + (x1)*d{2}"
    code, out, _ = run_cli(capsys, "d", "--n", "2", "(x2)*d{1}")
    assert code == 0 and out == "(1)*d{1,2}"
    code, out, _ = run_cli(capsys, "d", "--n", "2", "(1)*d{1,2}")
    assert code == 0 and out == "0"


def test_wedge(capsys):
    code, out, _ = run_cli(capsys, "wedge", "--n", "2", "(x2)*d{1}", "(x1)*d{2}")
    assert code == 0 and out == "(x1*x2)*d{1,2}"
    code, swapped, _ = run_cli(capsys, "wedge", "--n", "2", "(x1)*d{2}", "(x2)*d{1}")
    assert code == 0 and swapped == out
    code, out, _ = run_cli(capsys, "wedge", "--n", "2", "(1)*d{1}", "(1)*d{1}")
    assert code == 0 and out == "0"


def test_integrate(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--n", "2", "--top", "(1)*d{1,2}")
    assert code == 0 and out == "1"
    code, out, _ = run_cli(capsys, "integrate", "--n", "2", "--face", "2,1", "(x2)*d{1}")
    assert code == 0 and out == "1"
    code, out, _ = run_cli(capsys, "integrate", "--n", "2", "--boundary", "(x2)*d{1}")
    assert code == 0 and out == "1"


def test_integrate_degree_mismatch(capsys):
    code, _, err = run_cli(capsys, "integrate", "--n", "2", "--top", "(x2)*d{1}")
    assert code == 2 and "degree" in err


def test_integrate_requires_exactly_one_mode(capsys):
    code, _, _ = run_cli(capsys, "integrate", "--n", "2", "(x2)*d{1}")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "integrate", "--n", "2", "--top", "--boundary", "(x2)*d{1}"
    )
    assert code == 2


def test_stokes_single_form(capsys):
    code, out, _ = run_cli(capsys, "stokes", "--n", "2", "(x2)*d{1}")
    assert code == 0
    assert out == "lhs=1 rhs=1 pass=true form=(x2)*d{1}"


def test_stokes_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "stokes", "--n", "2", "--exhaustive")
    assert code == 0 and out == "checked=256 failed=0"


def test_stokes_random(capsys):
    code, out, _ = run_cli(
        capsys, "stokes", "--n", "4", "--random", "2000", "--seed", "1"
    )
    assert code == 0 and out == "checked=2000 failed=0"


def test_stokes_deterministic(capsys):
    first = run_cli(capsys, "stokes", "--n", "3", "--random", "500", "--seed", "9")
    second = run_cli(capsys, "stokes", "--n", "3", "--random", "500", "--seed", "9")
    assert first == second


def _flip_boundary_integral(monkeypatch):
    # stokes_check reads the module's global, so every check fails
    boundary = integration.integrate_boundary
    monkeypatch.setattr(integration, "integrate_boundary", lambda w: 1 - boundary(w))


def test_failed_stokes_check_exits_1(capsys, monkeypatch):
    _flip_boundary_integral(monkeypatch)
    code, out, err = run_cli(capsys, "stokes", "--n", "2", "(x2)*d{1}")
    assert (code, out, err) == (1, "lhs=1 rhs=0 pass=false form=(x2)*d{1}", "")


def test_failed_stokes_sweep_exits_1(capsys, monkeypatch):
    _flip_boundary_integral(monkeypatch)
    code, out, err = run_cli(capsys, "stokes", "--n", "2", "--exhaustive")
    assert (code, err) == (1, "")
    assert out == "checked=256 failed=256\ncounterexample index=0: lhs=0 rhs=1 pass=false form=0"


def test_stokes_mode_validation(capsys):
    code, _, _ = run_cli(capsys, "stokes", "--n", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "stokes", "--n", "3", "--exhaustive")
    assert code == 2
    code, _, _ = run_cli(capsys, "stokes", "--n", "2", "--exhaustive", "(x2)*d{1}")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "stokes", "--n", "2", "--exhaustive", "--random", "10"
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "stokes", "--n", "2", "(x2)*d{1}", "--random", "5")
    assert code == 2
    code, out, err = run_cli(capsys, "stokes", "--n", "25", "--random", "1")
    assert (code, out) == (2, "") and "arity <= 24, got 25" in err


def test_stokes_seed_needs_random(capsys):
    for mode in (("--exhaustive",), ("(x2)*d{1}",)):
        code, out, err = run_cli(capsys, "stokes", "--n", "2", *mode, "--seed", "5")
        assert code == 2 and out == "" and "--seed" in err and "--random" in err
    code, out, _ = run_cli(capsys, "stokes", "--n", "3", "--random", "50")
    assert code == 0 and out == "checked=50 failed=0"


def test_bench_range(capsys):
    code, _, _ = run_cli(capsys, "bench", "--n", "8")
    assert code == 2
    code, out, _ = run_cli(capsys, "bench", "--n", "10", "--reps", "2")
    assert code == 0 and "round-trip=verified" in out and "median=" in out


def test_bench_round_trip_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(bench, "mobius_transform", lambda bits, arity: bits >> 1)
    code, out, err = run_cli(capsys, "bench", "--n", "10", "--reps", "1")
    assert (code, out) == (1, "") and err.startswith("error: round-trip"), err


@pytest.mark.parametrize(
    "exc,code,message",
    [
        (MemoryError, 2, "error: out of memory"),
        (KeyboardInterrupt, 130, "interrupted"),
        (RecursionError("too deep"), 2, "error: too deep"),
    ],
)
def test_fatal_exceptions_exit_without_traceback(capsys, monkeypatch, exc, code, message):
    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_anf", handler)
    assert run_cli(capsys, "anf", "--n", "2", "x1") == (code, "", message)


def test_readme_cli_examples(capsys):
    # each "zhegalkin ..." line of the README prints its "# ..." comment up
    # to the first double space; bench's comment describes its output
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines()
             if line.startswith("zhegalkin ") and not line.startswith("zhegalkin bench ")]
    assert len(lines) == 13
    for line in lines:
        command, _, comment = line.partition("#")
        want = comment.strip().split("  ")[0]
        assert run_cli(capsys, *shlex.split(command)[1:]) == (0, want, ""), line


def test_readme_library_examples():
    # the README's Library block runs line by line in one namespace; each
    # "# ..." comment is str() of the line's value, repr() for a table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library\n")[1].split("```python\n")[1].split("```")[0]
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        assignment = re.fullmatch(r"(\w+) = (.+)", code.strip())
        value = eval(assignment[2] if assignment else code, namespace)
        if assignment:
            namespace[assignment[1]] = value
        got = repr(value) if isinstance(value, TruthTable) else str(value)
        assert got == comment.strip(), line
        checked += 1
    assert checked == 6


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x1 | x2\n"))
    code, out, _ = run_cli(capsys, "anf", "--n", "2", "-")
    assert code == 0 and out == "x1 + x2 + x1*x2"


def test_outputs_reparse(capsys):
    _, out, _ = run_cli(capsys, "anf", "--n", "2", "x1 | x2")
    parse_anf(out, 2)
    _, out, _ = run_cli(capsys, "d", "--n", "2", "x1*x2")
    parse_form(out, 2)
    _, out, _ = run_cli(capsys, "table", "--n", "2", "x1*x2")
    parse_table(out)


def test_module_entry_point():
    proc = run_module("anf", "--n", "2", "x1 | x2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1 + x2 + x1*x2"


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [
    ("--n", "1", "x1"),
    # about 40 kB of ANF, more than one buffer of a block-buffered stdout
    (f"12:{random.Random(3).getrandbits(1 << 12):01024X}",),
])
def test_closed_stdout_exits_141_without_traceback(monkeypatch, unbuffered, argv):
    # a pipe whose read end is closed makes the child's first write fail
    # with EPIPE; the child must not report it as a failed check (exit 1),
    # nor print a traceback or "Exception ignored" when it exits
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_module("anf", *argv, stdout=write_end, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_import_loads_no_heavy_stdlib_modules():
    # -S: site hooks may preload some of these, which would hide an import
    heavy = ("dataclasses", "inspect", "statistics", "fractions", "decimal", "typing")
    proc = run_python(
        "-S", "-c", f"import sys, zhegalkin.cli; print([m for m in {heavy!r} if m in sys.modules])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_surface_is_each_submodules_all():
    # the package star-imports its submodules, and a star import shadows a
    # name silently: every exported name must come from exactly one list
    submodules = [m for m in vars(zhegalkin).values()
                  if isinstance(m, types.ModuleType) and hasattr(m, "__all__")]
    assert len(submodules) == 7
    names = [name for m in submodules for name in m.__all__]
    assert len(names) == len(set(names))
    assert sorted(zhegalkin.__all__) == sorted(names)
    for m in submodules:
        for name in m.__all__:
            assert getattr(zhegalkin, name) is getattr(m, name)
    assert "Face" not in names and not hasattr(zhegalkin, "Face")


# fuzzed text: the characters of every input format, whitespace, and a few
# that none accepts; a run of the formats' tokens; or a sum of distinct terms
# of one degree.  Garbage holds at least one "@", which no format has.
_FUZZ_TEXT = st.one_of(
    st.text(alphabet="x0123456789*+^&|!()dD{},:- \tabfnortAF@#\u0663\u00e9", max_size=30),
    st.lists(st.sampled_from(["x1", "x2", "x3", "x1*x2", "1", "0", " + ", "^", "&", "|", "!",
                              "(", ")", ")*d{", "d{1}", "d{1,2}", "}", ",", "3:E8", "2:8",
                              "xor", "not", "D1", " "]),
             max_size=12).map("".join),
    st.sampled_from([("1", "x1", "x1*x2", "x2*x3"),
                     ("(x2)*d{1}", "(x1)*d{2}", "(x1*x2)*d{3}"),
                     ("(1)*d{1,2}", "(x3)*d{1,2}", "(x1)*d{2,3}")]).flatmap(
        lambda terms: st.lists(st.sampled_from(terms), min_size=1, max_size=4, unique=True)
        .map(" + ".join)),
)
# A leading "-" would make argparse read the text as an option.
_GARBAGE = st.tuples(_FUZZ_TEXT, _FUZZ_TEXT).map("@".join).filter(
    lambda text: not text.startswith("-"))


@st.composite
def _cli_argv(draw, text, number, face, reads_text=False):
    """argv for one subcommand, every input from `text`, every number from
    `number` and the face from `face`.  Each argv carries --n, so garbage
    numbers alone make every argv garbage.  With `reads_text`, only argv
    that hand a text input to a reader are drawn."""
    n = ["--n", draw(number)]
    commands = ["anf", "table", "derive", "d", "wedge", "integrate", "stokes"]
    command = draw(st.sampled_from(commands if reads_text else [*commands, "bench"]))
    if command in ("anf", "table", "d"):
        return [command, *n, draw(text)]
    if command == "derive":
        return [command, *n, "--var", draw(number), draw(text)]
    if command == "wedge":
        return [command, *n, draw(text), draw(text)]
    if command == "integrate":
        mode = draw(st.sampled_from(["--top", "--boundary", "--face"]))
        return [command, *n, mode, *([draw(face)] if mode == "--face" else []), draw(text)]
    if command == "stokes":
        mode = draw(st.sampled_from(["form"] if reads_text else ["form", "--exhaustive", "--random"]))
        if mode == "form":
            return [command, *n, draw(text)]
        if mode == "--exhaustive":
            return [command, *n, mode]
        return [command, *n, mode, draw(number), "--seed", draw(number)]
    return [command, *n, "--reps", draw(number)]


def _run_in_process(argv):
    """(exit code, stdout, stderr) of cli.main; standard input holds an
    expression, and any exception but argparse's exit propagates."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("x1 | x2\n")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


# small numbers keep every valid argv cheap: n <= 6, at most 6 samples
_SMALL_NUMBER = st.sampled_from(["1", "2", "3", "3", "4", "5", "6", "0", "-1", "", "3@"])
_FUZZ = settings(derandomize=True, database=None, deadline=timedelta(seconds=1))


@settings(_FUZZ, max_examples=200)
@given(_cli_argv(_FUZZ_TEXT, _SMALL_NUMBER, _FUZZ_TEXT))
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err, argv
    else:
        assert out and err == "", argv


@_FUZZ
@given(_cli_argv(_GARBAGE, st.sampled_from(["1", "2", "3", "4", "5", "6"]),
                 st.sampled_from(["1,0", "1,1"]), reads_text=True))
def test_garbage_text_exits_2(argv):
    # numbers and faces are valid, so the garbage reaches a text reader,
    # whose error the handler prints (argparse would print its usage)
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: "), (argv, err)


@settings(_FUZZ, max_examples=30)
@given(_cli_argv(st.just("x1"), _GARBAGE, st.just("1,0")))
def test_garbage_numbers_exit_2(argv):
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, ""), argv
    assert err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
