"""The one rule that judges a benchmark run's report, in tools/record_bench.py."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"


def load_tool(path):
    spec = importlib.util.spec_from_file_location("record_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_bench = load_tool(TOOL)

WORKLOAD = "stokes_sweep"


def recorded_counts():
    bench = json.loads(record_bench.latest_bench().read_text())
    return dict(bench["workloads"][WORKLOAD]["exact_counts"])


def write_report(tmp_path, **changes):
    """A report of one clean run with the latest recorded counts, then `changes`."""
    report = {
        "environment": {"workload": WORKLOAD, "seed": record_bench.SEED, "trace": 0},
        "failed": 0,
        "problems": [],
        "exact_counts": recorded_counts(),
        **changes,
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return path


def test_check_passes_a_clean_matching_report(tmp_path, capsys):
    path = write_report(tmp_path)
    assert record_bench.check(path) == 0
    assert "exact counts match" in capsys.readouterr().out


@pytest.mark.parametrize("changes, says", [
    ({"failed": 1}, "1 failed ops"),
    ({"problems": ["prelude: wrong result"]}, "problem: prelude: wrong result"),
])
def test_check_fails_a_run_whose_oracles_failed(tmp_path, capsys, changes, says):
    assert record_bench.check(write_report(tmp_path, **changes)) == 1
    assert says in capsys.readouterr().out


def test_check_fails_one_count_off_by_one(tmp_path, capsys):
    counts = recorded_counts()
    name = sorted(counts)[0]
    counts[name] += 1
    assert record_bench.check(write_report(tmp_path, exact_counts=counts)) == 1
    assert f"{name}: {counts[name]} != {counts[name] - 1}" in capsys.readouterr().out


def test_check_fails_another_seed(tmp_path):
    path = write_report(tmp_path, environment={"workload": WORKLOAD, "seed": 2, "trace": 0})
    assert record_bench.check(path) == 1


def test_record_refuses_counts_that_differ_between_hash_seeds():
    counts = recorded_counts()
    name = sorted(counts)[0]
    assert record_bench.gated_counts(WORKLOAD, {"exact_counts": counts},
                                     {"exact_counts": dict(counts)}) == counts
    shifted = {**counts, name: counts[name] + 1}
    with pytest.raises(SystemExit) as exit_:
        record_bench.gated_counts(WORKLOAD, {"exact_counts": counts}, {"exact_counts": shifted})
    message = str(exit_.value.code)
    assert f"{name}: {counts[name]} != {counts[name] + 1}" in message
    assert message.endswith("nothing recorded") and "\n" not in message


def test_record_outside_a_git_checkout_exits_with_one_line(tmp_path):
    # a copy of the tool whose repository root is tmp_path, which git does not track
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "record_bench.py").write_text(TOOL.read_text())
    (tmp_path / "BENCHMARK.json").write_text((TOOL.parents[1] / "BENCHMARK.json").read_text())
    with pytest.raises(SystemExit) as exit_:
        load_tool(tmp_path / "tools" / "record_bench.py").main(["--out", "BENCH_1.json"])
    message = str(exit_.value.code)
    assert "not a git checkout" in message and "\n" not in message
    assert not (tmp_path / "BENCH_1.json").exists()


def write_bench(root, k, commit, ops_per_s, counts, attempted=40, tail_percentile=75.0):
    """A BENCH_<k>.json holding one stokes_sweep run with these values."""
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit in record_bench.END_TO_END}
    metrics["ops_per_s"]["value"] = ops_per_s
    bench = {"workloads": {WORKLOAD: {
        "exact_counts": counts,
        "trace0": {"environment": {"git_commit": commit}, "metrics": metrics,
                   "attempted": attempted, "op_tail_percentile": tail_percentile},
    }}}
    (root / f"BENCH_{k}.json").write_text(json.dumps(bench))


def test_trajectory_prints_one_row_per_file_in_order_of_k(tmp_path):
    write_bench(tmp_path, 22, "b" * 40, 250.0, {"anf.terms_out": 7}, 4744, 99.00927487352445)
    write_bench(tmp_path, 9, "a" * 40, 125.5, {"anf.terms_out": 7})
    write_bench(tmp_path, 23, None, 300.0, {"anf.terms_out": 8})
    table = record_bench.trajectory(tmp_path)
    assert "unpaired" in table and "only the exact counts are gated" in table
    header, rule, *rows = [line for line in table.splitlines() if line.startswith("|")]
    columns = [cell.strip() for cell in header.strip("|").split("|")]
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert len(rule.split("---")) - 1 == len(columns)
    assert [row[:4] for row in cells] == [
        ["BENCH_9.json", "aaaaaaa", "checkout as it stood", "first"],
        ["BENCH_22.json", "bbbbbbb", "clean clone, uncached", "as previous"],
        ["BENCH_23.json", "unknown", "clean clone, uncached", "changed"],
    ]
    ops = columns.index(f"{WORKLOAD} ops_per_s (1/s)")
    assert [row[ops] for row in cells] == ["125.5", "250", "300"]
    # each timing sits beside the size of its sample, so a thin one shows
    attempted = columns.index(f"{WORKLOAD} attempted")
    assert columns[attempted + 1] == f"{WORKLOAD} tail percentile"
    assert [row[attempted:attempted + 2] for row in cells] == [
        ["40", "p75"], ["4744", "p99"], ["40", "p75"]]
    # a workload the files do not hold has empty cells
    assert all(row[columns.index("dense_tables ops_per_s (1/s)")] == "" for row in cells)
