import io
import random
import shlex
import sys
import types
from pathlib import Path

import pytest

import zhegalkin
from zhegalkin import cli, parse_anf, parse_form, parse_table
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


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
