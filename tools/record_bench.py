"""Record the benchmark of this checkout in BENCH_<k>.json, and gate on it.

    python3 tools/record_bench.py --out BENCH_<k>.json
    python3 tools/record_bench.py --check .bench_build/perfbench/NAME-seed1-traceT.json

Recording runs perfbench/run.py on each workload of BENCHMARK.json at seed 1
for 3 s, once with --trace 0 (the end-to-end metrics) and once with
--trace 1 (the per-layer metrics), and merges the reports that those runs write to
.bench_build/perfbench/ into one JSON file at the repository root.  The
traced reports' kept spans are left out; everything else is kept.  Each
report's `environment.git_commit` names the checkout's HEAD, so the file
also records `tree_clean`: whether `src/` and `perfbench/` matched HEAD
(`git status --porcelain`), or null outside a git checkout, and
`bytecode_cache`: whether `src/zhegalkin/__pycache__` held a `.pyc` file
after the runs.  The measured children import such a cache instead of
compiling the package, so `setup_s` and `cli.import_ms` read lower with
one than without.  A recording from a changed tree or with a cache prints
a warning.

The two runs of a workload use different PYTHONHASHSEED values.  Their
`exact_counts` (work counted over a fixed window of seeded ops) are
recorded as the workload's gated counts when the two runs agree; a count
on which they differ is listed under `ungated_counts` instead.

Checking compares the exact counts of one run's report with the gated
counts of the latest BENCH_<k>.json (the largest k) and exits 1 on any
difference, so an algorithmic change in the work done shows without any
timing noise.  A change that alters the counts on purpose records a new
BENCH_<k>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ROOT / ".bench_build" / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 1
SECONDS = 3  # per run: the exact counts need only the prelude, the timings are a sketch

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
]


def run_workload(workload: str, trace: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(trace))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL, env=env,
    )
    report = json.loads((REPORTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    report.pop("spans", None)
    return report


def tree_clean():
    """Whether src/ and perfbench/ match HEAD; None outside a git checkout."""
    status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                            cwd=ROOT, capture_output=True, text=True)
    return None if status.returncode else not status.stdout.strip()


def record(out: Path) -> None:
    clean = tree_clean()
    if not clean:
        state = "are not in a git checkout" if clean is None else "differ from HEAD"
        print(f"warning: src/ or perfbench/ {state}, so git_commit in the reports "
              "does not name the measured code", file=sys.stderr)
    workloads = {}
    for workload in WORKLOADS:
        untraced, traced = (run_workload(workload, trace) for trace in (0, 1))
        counts = untraced["exact_counts"]
        ungated = sorted(name for name in counts if counts[name] != traced["exact_counts"][name])
        workloads[workload] = {
            "exact_counts": {name: n for name, n in counts.items() if name not in ungated},
            "ungated_counts": ungated,
            "trace0": untraced,
            "trace1": traced,
        }
        print(f"{workload}: ungated counts: {', '.join(ungated) or 'none'}")
        for report in (untraced, traced):
            if report["failed"] or report["problems"]:
                sys.exit(f"{workload}: a run failed its oracles; nothing recorded")
    # read after the runs: a child run without PYTHONDONTWRITEBYTECODE
    # writes the cache that the later children import
    cached = any((ROOT / "src" / "zhegalkin" / "__pycache__").glob("*.pyc"))
    if cached:
        print("warning: src/zhegalkin/__pycache__ holds bytecode, so setup_s and "
              "cli.import_ms are not comparable with a recording without it", file=sys.stderr)
    bench = {
        "recorded_with": f"python3 tools/record_bench.py --out {out.name}",
        "tree_clean": clean,
        "bytecode_cache": cached,
        "seed": SEED,
        "seconds": SECONDS,
        "caveats": CAVEATS,
        "workloads": workloads,
    }
    out.write_text(json.dumps(bench, indent=1) + "\n")


def latest_bench() -> Path:
    found = [(int(m[1]), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    if not found:
        sys.exit("no BENCH_<k>.json at the repository root")
    return max(found)[1]


def check(report_path: Path) -> int:
    report = json.loads(report_path.read_text())
    workload = report["environment"]["workload"]
    if report["environment"]["seed"] != SEED:
        sys.exit(f"{report_path.name}: recorded counts are for seed {SEED}")
    bench = latest_bench()
    want = json.loads(bench.read_text())["workloads"][workload]["exact_counts"]
    got = report["exact_counts"]
    diffs = [f"{name}: {got.get(name)} != {n} recorded" for name, n in want.items() if got.get(name) != n]
    for line in diffs:
        print(f"{workload}: {line} in {bench.name}")
    if not diffs:
        print(f"{workload}: exact counts match {bench.name} ({len(want)} counts)")
    return 1 if diffs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="record into this file at the repository root")
    mode.add_argument("--check", type=Path, metavar="REPORT", help="check one run's report")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    record(ROOT / args.out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
