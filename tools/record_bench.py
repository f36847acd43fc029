"""Record the benchmark of HEAD in BENCH_<k>.json, and judge one run's report.

    python3 tools/record_bench.py --out BENCH_<k>.json
    python3 tools/record_bench.py --check .bench_build/perfbench/NAME-seed1-traceT.json
    python3 tools/record_bench.py --trajectory

Recording clones HEAD into a temporary directory and runs perfbench/run.py
there on each workload of BENCHMARK.json at seed 1 for 3 s, once with
--trace 0 (the end-to-end metrics) and once with --trace 1 (the per-layer
metrics), with PYTHONDONTWRITEBYTECODE=1.  So every report names in
`environment.git_commit` the commit it measured, and every child imports
that code from a path that has no bytecode cache and gets none.
Uncommitted edits are not measured: commit them first.  The reports are
merged into one JSON file at the repository root; the traced reports' kept
spans are left out, everything else is kept.

The two runs of a workload use different PYTHONHASHSEED values.  Their
`exact_counts` (work counted over a fixed window of seeded ops) are
recorded as the workload's gated counts when the two runs agree; a count
on which they differ is listed under `ungated_counts` instead.

One rule judges a report: no failed op, no problem, seed 1, and exact
counts equal to the gated counts.  Checking applies it with the counts of
the latest BENCH_<k>.json (the largest k) and exits 1 if it fails, so a
wrong result or an algorithmic change in the work done shows without any
timing noise.  Recording refuses to write a file whose own reports fail
it, and prints how each report fares against the latest file; a change
that alters the counts on purpose records a new BENCH_<k>.json.

The trajectory prints one markdown row per BENCH_<k>.json, in order of k:
the commit, what was measured (a clean clone without a bytecode cache
from BENCH_22 on, the checkout as it stood before), whether the gated
counts equal the previous file's, and for each workload's untraced run the
ops it attempted, the percentile its tail metric read and its end-to-end
metrics.  Those timings are single unpaired 3 s runs on a shared host:
they show a direction at best and carry no claim, and a run of few ops,
whose tail is a low percentile, shows less than that.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
SEED = 1
SECONDS = 3  # per run: the exact counts need only the prelude, the timings are a sketch
# the first BENCH_<k>.json recorded in a clean clone without a bytecode cache
FIRST_CLONED = 22

# Known defects of perfbench/, recorded so that the numbers are read with
# them in mind; each is left for a change to perfbench/ of its own.
CAVEATS = [
    "peak_rss_mb is read after the latency arrays are built (end_to_end in "
    "perfbench/run.py), so it grows with the number of ops a run makes.",
    "On cli_process, peak_rss_mb reads RUSAGE_CHILDREN, which reports the "
    "forked set-up harness (about 23.5 MB) rather than the CLI child (about "
    "16.5 MB measured with os.wait4).",
    "perfbench/README.md still says that anf.evaluate runs inside the "
    "integrals on stokes_sweep; the integrals read term-count parities.",
    "perfbench/README.md says that the untimed first set-up child writes the "
    "bytecode cache; under PYTHONDONTWRITEBYTECODE, as recorded here, it "
    "writes none, and every set-up child compiles the package.",
]


def run_workload(clone: Path, workload: str, trace: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(trace), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, str(clone / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL, env=env,
    )
    reports = clone / ".bench_build" / "perfbench"
    report = json.loads((reports / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    report.pop("spans", None)
    return report


def bench_files(root: Path = ROOT) -> list[tuple[int, Path]]:
    """(k, path) of every BENCH_<k>.json in root, in order of k."""
    return sorted((int(m[1]), p) for p in root.glob("BENCH_*.json")
                  if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))


def latest_bench() -> Path:
    found = bench_files()
    if not found:
        sys.exit("no BENCH_<k>.json at the repository root")
    return found[-1][1]


def judge(report: dict, counts: dict, source: str) -> bool:
    """Print why one run's report fails against `counts` from `source`
    (failed ops, problems, another seed, a count that differs); True if it passes."""
    env, got = report["environment"], report["exact_counts"]
    found = [f"{report['failed']} failed ops"] if report["failed"] else []
    found += [f"problem: {problem}" for problem in report["problems"]]
    if env["seed"] != SEED:
        found.append(f"seed {env['seed']}; counts are recorded for seed {SEED}")
    found += [f"{name}: {got.get(name)} != {n}" for name, n in counts.items() if got.get(name) != n]
    print(f"{env['workload']} trace {env['trace']} against {source}: "
          f"{'; '.join(found) or f'no failed op, no problem, {len(counts)} exact counts match'}")
    return not found


def record(out: Path) -> None:
    head = subprocess.run(["git", "rev-parse", "--show-toplevel", "--verify", "HEAD"],
                          cwd=ROOT, capture_output=True, text=True)
    if head.returncode or Path(head.stdout.splitlines()[0]) != ROOT:
        sys.exit(f"--out measures the HEAD commit, and {ROOT} is not a git checkout with one")
    commit = head.stdout.splitlines()[1]
    latest = latest_bench()
    previous = json.loads(latest.read_text())["workloads"]
    print(f"measuring commit {commit}; uncommitted edits are not measured")
    workloads = {}
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), tmp], check=True)
        subprocess.run(["git", "checkout", "--quiet", "--detach", commit], cwd=tmp, check=True)
        for workload in WORKLOADS:
            untraced, traced = (run_workload(Path(tmp), workload, trace) for trace in (0, 1))
            counts = untraced["exact_counts"]
            ungated = sorted(name for name in counts if counts[name] != traced["exact_counts"][name])
            gated = {name: n for name, n in counts.items() if name not in ungated}
            workloads[workload] = {
                "exact_counts": gated, "ungated_counts": ungated, "trace0": untraced, "trace1": traced,
            }
            print(f"{workload}: ungated counts: {', '.join(ungated) or 'none'}")
            for report in (untraced, traced):
                if not judge(report, gated, out.name):
                    sys.exit(f"{workload}: a run failed; nothing recorded")
                judge(report, previous.get(workload, {}).get("exact_counts", {}), latest.name)
    bench = {
        "recorded_with": f"python3 tools/record_bench.py --out {out.name}",
        "seed": SEED,
        "seconds": SECONDS,
        "caveats": CAVEATS,
        "workloads": workloads,
    }
    out.write_text(json.dumps(bench, indent=1) + "\n")


def check(report_path: Path) -> int:
    report = json.loads(report_path.read_text())
    bench = latest_bench()
    want = json.loads(bench.read_text())["workloads"][report["environment"]["workload"]]["exact_counts"]
    return 0 if judge(report, want, bench.name) else 1


def trajectory(root: Path = ROOT) -> str:
    """The BENCH_<k>.json files in root as a markdown table, one row each."""
    columns = [column for w in WORKLOADS for column in (
        f"{w} attempted", f"{w} tail percentile", *(f"{w} {name} ({unit})" for name, unit in END_TO_END))]
    lines = [
        "Timing columns: one unpaired 3 s untraced run at seed 1 per file, beside "
        "the ops it attempted and the percentile its tail read; not a perf claim; "
        "only the exact counts are gated.",
        "",
        "| " + " | ".join(["file", "commit", "measured", "gated counts", *columns]) + " |",
        "|" + "---|" * (4 + len(columns)),
    ]
    previous = None
    for k, path in bench_files(root):
        workloads = json.loads(path.read_text())["workloads"]
        counts = {w: workloads[w]["exact_counts"] for w in workloads}
        commit = next(iter(workloads.values()))["trace0"]["environment"]["git_commit"]
        cells = [
            path.name,
            (commit or "unknown")[:7],
            "clean clone, uncached" if k >= FIRST_CLONED else "checkout as it stood",
            "first" if previous is None else "as previous" if counts == previous else "changed",
        ]
        for w in WORKLOADS:
            run = workloads[w]["trace0"] if w in workloads else {}
            metrics = run.get("metrics", {})
            tail = run.get("op_tail_percentile")
            cells += [str(run.get("attempted", "")), "" if tail is None else f"p{tail:.3g}"]
            cells += [f"{metrics[name]['value']:.4g}" if name in metrics else "" for name, _ in END_TO_END]
        lines.append("| " + " | ".join(cells) + " |")
        previous = counts
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="record HEAD into this file at the repository root")
    mode.add_argument("--check", type=Path, metavar="REPORT", help="judge one run's report")
    mode.add_argument("--trajectory", action="store_true",
                      help="print every BENCH_<k>.json as one table row")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.trajectory:
        print(trajectory())
        return 0
    record(ROOT / args.out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
