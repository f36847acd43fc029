"""Benchmark of the zhegalkin library on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` next to this
directory, never from an installed copy, and the run exits non-zero
without a result if `src/zhegalkin` is missing.  Workloads: dense_tables,
stokes_sweep, sparse_symbolic, cli_process (see workloads.py and
README.md).

A run first checks determinism: it replays the first two cycles of the
seeded input stream untimed, counting exact work, and requires the timed
loop to count the same over the same ops, and seed+1 to give different
inputs.  With `--trace 0` it then runs the closed loop for S seconds,
timing set-up in fresh child processes between ops, and prints the
end-to-end metrics.
With `--trace 1` it runs the loop for S seconds with every other cycle
traced, a span around every public call the benchmark makes, and prints
the per-layer metrics and the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
report, with the run environment and (traced) the kept spans, is written
to .bench_build/perfbench/ under the repository root.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 30  # fresh set-up processes per run, spread over it; the median is reported
WINDOW_CYCLES = 2  # exact work counts cover the first two cycles of ops
MIN_OPS = 40
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
TAIL_CAP = 0.99  # above p99 the tail measures the machine, not the program
KEEP_SPAN_OPS = 200  # traced ops whose individual spans are kept and written out

MODULES = ("anf", "forms", "secant", "integration", "exprs", "textio", "cli")
SPAN_NAMES = (
    "anf.TruthTable",
    "anf.from_truth_table",
    "anf.to_truth_table",
    "anf.mobius_transform",
    "anf.from_coeff_bits",
    "anf.mul",
    "anf.add",
    "anf.evaluate",
    "anf.partial",
    "anf.restrict",
    "forms.KForm",
    "forms.d",
    "forms.wedge",
    "forms.add",
    "secant.differential",
    "secant.apply",
    "secant.pair",
    "integration.integrate_top",
    "integration.integrate_boundary",
    "integration.stokes_check",
    "exprs.parse_expr",
    "exprs.expr_to_anf",
    "textio.parse_anf",
    "textio.parse_form",
    "textio.parse_table",
    "textio.parse_secant",
    "textio.format",
    "cli.process",
)
COUNT_NAMES = (
    "anf.mul.term_pairs",
    "anf.terms_out",
    "forms.wedge.coeff_pairs",
    "integration.forms_checked",
    "textio.chars",
)

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
import zhegalkin
{setup}
elapsed = time.perf_counter() - start
if not zhegalkin.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + zhegalkin.__file__)
print(repr(elapsed))
"""


def load_library():
    """Import zhegalkin from ./src, or exit non-zero if it is not there."""
    if not (SRC / "zhegalkin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'zhegalkin'}")
    sys.path.insert(0, str(SRC))
    import zhegalkin

    if not Path(zhegalkin.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported zhegalkin from {zhegalkin.__file__}, not {SRC}")
    return zhegalkin


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return env


def run_child(args, check=True):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=60, check=check,
    )


class SetupTimer:
    """Seconds for `import zhegalkin` plus warm-up, in fresh processes
    spread evenly over the timed loop.

    The machine's speed drifts over seconds.  Children run in one burst
    all see the same state, so their median jumps between the fast and
    the slow state from run to run; spread over the loop, it follows the
    run's mix of states, as the op timings do.  A child runs between ops,
    outside their timing.  The first child is untimed: it writes the
    bytecode cache.
    """

    def __init__(self, setup_code, seconds):
        self.code = SETUP_CHILD.format(setup=setup_code)
        self.interval = seconds / SETUP_SAMPLES
        self.samples = []
        run_child(["-c", self.code, str(SRC)])
        self.due = time.perf_counter()

    def sample(self):
        done = run_child(["-c", self.code, str(SRC)])
        self.samples.append(float(done.stdout))

    def between_ops(self):
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.sample()
            self.due += self.interval

    def median(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def plain_call(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans around the benchmark's calls into the library.

    Call spans are children of the op span that made them and have no
    children themselves (the library never calls back into the tracer),
    so a call's self time is its duration and the op's self time, the
    benchmark's glue, is the op minus its calls.  Every op is folded into
    the totals when it ends; the spans of the first KEEP_SPAN_OPS ops are
    also kept, as (name, start_ns, end_ns, parent index, op id).  Probe
    spans come from checks and child-process probes, outside any op; each
    probe duration is kept.
    """

    def __init__(self):
        self.busy_ns = Counter()
        self.calls = Counter()
        self.probe_ns = defaultdict(list)
        self.op_ns = 0
        self.glue_ns = 0
        self.ops = 0
        self.kept = []
        self._open = []

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._open.append((name, start, time.perf_counter_ns()))

    def probe(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self.probe_ns[name].append(end - start)
            if self.ops <= KEEP_SPAN_OPS:
                self.kept.append((name, start, end, None, self.ops - 1))

    def end_op(self, op_id, kind, start, end):
        children = 0
        for name, s, e in self._open:
            self.busy_ns[name] += e - s
            self.calls[name] += 1
            children += e - s
        self.op_ns += end - start
        self.glue_ns += end - start - children
        self.ops += 1
        if op_id < KEEP_SPAN_OPS:
            parent = len(self.kept)
            self.kept.append((f"op.{kind}", start, end, None, op_id))
            self.kept.extend((name, s, e, parent, op_id) for name, s, e in self._open)
        self._open.clear()


def inputs_digest(wl, seed, count):
    rng = random.Random(seed)
    inputs = [wl.make_input(rng, wl.cycle[i % len(wl.cycle)]) for i in range(count)]
    return inputs, hashlib.sha256(pickle.dumps(inputs)).hexdigest()


def prelude(wl, seed):
    """Untimed replay of the count window: warms caches, counts exact work,
    and checks that the inputs depend on the seed."""
    window = WINDOW_CYCLES * len(wl.cycle)
    inputs, digest = inputs_digest(wl, seed, window)
    _, other = inputs_digest(wl, seed + 1, window)
    counts = Counter()
    problems = ["seed and seed+1 gave the same inputs"] if digest == other else []
    for i, inp in enumerate(inputs):
        try:
            wl.check(inp, wl.run(inp, plain_call, counts), plain_call)
        except Exception as exc:  # noqa: BLE001 - reported, and the run goes on
            problems.append(f"prelude op {i}: {''.join(traceback.format_exception_only(exc)).strip()}")
    try:
        wl.self_check(seed)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"self check: {''.join(traceback.format_exception_only(exc)).strip()}")
    return {"counts": counts, "digest": digest, "ops": window, "problems": problems}


def run_loop(wl, seed, seconds, pre, tracer=None, setup=None):
    """The closed loop: one op at a time until `seconds` have passed at a
    cycle boundary.  A failed op is counted and the loop goes on.  The
    exact counts over the first window must equal the prelude's.  A
    SetupTimer, if given, takes its samples between ops.

    With a tracer, every other cycle is traced, so traced and untraced
    ops share the machine's state and their throughputs give the tracing
    overhead; the workload's child-process probes run after each traced
    cycle.
    """
    rng = random.Random(seed)
    length = len(wl.cycle)
    window = WINDOW_CYCLES * length
    min_ops = max(MIN_OPS, window)
    counts = Counter()
    window_counts = None
    latency_ms = array.array("d")
    op_ns = [0, 0]  # untraced, traced
    verified = [0, 0]
    failed = 0
    failures = []
    sizes = Counter()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        kind = wl.cycle[i % length]
        traced = tracer is not None and (i // length) % 2 == 1
        call, probe = (tracer.call, tracer.probe) if traced else (plain_call, plain_call)
        inp = wl.make_input(rng, kind)
        sizes[f"n={wl.arity(inp)}"] += 1
        error = None
        start = time.perf_counter_ns()
        try:
            out = wl.run(inp, call, counts)
        except Exception as exc:  # noqa: BLE001 - a failed op must not stop the run
            error = exc
        end = time.perf_counter_ns()
        if traced:
            tracer.end_op(i, kind, start, end)
        if error is None:
            try:
                wl.check(inp, out, probe)
            except Exception as exc:  # noqa: BLE001
                error = exc
        op_ns[traced] += end - start
        verified[traced] += error is None
        latency_ms.append((end - start) / 1e6 if error is None else math.inf)
        if error is not None:
            failed += 1
            if len(failures) < 3:
                failures.append(f"op {i} ({kind}): {''.join(traceback.format_exception_only(error)).strip()}")
                traceback.print_exception(error, file=sys.stderr)
        i += 1
        if setup is not None:
            setup.between_ops()
        if traced and i % length == 0:
            for name, args in wl.child_probes:
                tracer.probe(name, run_child, args)
        if i == window:
            window_counts = Counter(counts)
        if i % length == 0 and i >= min_ops and time.perf_counter() >= deadline:
            break
    problems = []
    if window_counts != pre["counts"]:
        problems.append(f"counts differ on the same seed: {dict(pre['counts'])} vs {dict(window_counts)}")
    return {
        "attempted": i,
        "failed": failed,
        "failures": failures,
        "latency_ms": latency_ms,
        "ops_per_s": verified[0] / (op_ns[0] / 1e9),
        "traced_ops_per_s": verified[1] / (op_ns[1] / 1e9) if op_ns[1] else None,
        "counts": counts,
        "sizes": dict(sizes),
        "problems": problems,
    }


def tail(latency_ms):
    """(value, percentile, samples beyond): the highest percentile, up to
    p99, that has at least TAIL_BEYOND samples above it."""
    ordered = sorted(latency_ms)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n - math.ceil(TAIL_CAP * n))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb(workload):
    # cli_process does its work in the child processes it waits for
    who = resource.RUSAGE_CHILDREN if workload == "cli_process" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_commit():
    """(commit, None), or (None, why) when the checkout has no commit to
    report.  Git does not search above the repository root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=30,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"no git commit: {exc}"
    if done.returncode:
        return None, f"no git commit: {done.stderr.strip() or 'git rev-parse failed'}"
    return done.stdout.strip(), None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "zhegalkin").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, commit):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(wl, args):
    pre = prelude(wl, args.seed)
    setup = SetupTimer(wl.setup_code, args.seconds)
    loop = run_loop(wl, args.seed, args.seconds, pre, setup=setup)
    value, percentile, beyond = tail(loop["latency_ms"])
    metrics = {
        "setup_s": (setup.median(), "s"),
        "ops_per_s": (loop["ops_per_s"], "1/s"),
        "op_p50_ms": (statistics.median(loop["latency_ms"]), "ms"),
        "op_tail_ms": (value, "ms"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    extra = {
        "setup_samples_s": setup.samples,
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
    }
    return metrics, pre, loop, extra


def per_layer(wl, args):
    pre = prelude(wl, args.seed)
    tracer = Tracer()
    loop = run_loop(wl, args.seed, args.seconds, pre, tracer)
    ops = tracer.ops

    def ms(ns):
        return ns / 1e6 / ops

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.ms_per_op"] = (ms(tracer.busy_ns[name]), "ms")
        metrics[f"{name}.calls_per_op"] = (tracer.calls[name] / ops, "1/op")
    butterfly = tracer.busy_ns["anf.mobius_transform"]
    conversions = tracer.busy_ns["anf.from_truth_table"] + tracer.busy_ns["anf.to_truth_table"]
    metrics["anf.boundary.ms_per_op"] = (ms(conversions - 2 * butterfly) if conversions else 0.0, "ms")

    def median_ms(name):
        samples = tracer.probe_ns[name]
        return statistics.median(samples) / 1e6 if samples else 0.0

    startup = median_ms("cli.python_startup")
    imported = median_ms("cli.import")
    main = ms(sum(tracer.probe_ns["cli.main"]))
    process = ms(tracer.busy_ns["cli.process"])
    metrics["cli.python_startup_ms"] = (startup, "ms")
    metrics["cli.import_ms"] = (imported - startup, "ms")
    metrics["cli.main_ms"] = (main, "ms")
    metrics["cli.process_other_ms"] = (process - imported - main if process else 0.0, "ms")

    for module in MODULES:
        busy = sum(ns for name, ns in tracer.busy_ns.items() if name.startswith(module + "."))
        metrics[f"{module}.self_ms_per_op"] = (ms(busy), "ms")
    metrics["bench.glue_ms_per_op"] = (ms(tracer.glue_ns), "ms")
    metrics["op.traced_ms_per_op"] = (ms(tracer.op_ns), "ms")
    traced_rate = loop["traced_ops_per_s"]
    overhead = (loop["ops_per_s"] / traced_rate - 1) * 100 if traced_rate else math.inf
    metrics["trace.overhead_pct"] = (overhead, "%")
    for name in COUNT_NAMES:
        metrics[name] = (pre["counts"][name], "count")

    extra = {
        "untraced_ops_per_s": loop["ops_per_s"],
        "traced_ops_per_s": loop["traced_ops_per_s"],
        "traced_ops": ops,
        "child_probe_samples": {name: len(v) for name, v in tracer.probe_ns.items() if name != "cli.main"},
        "spans_kept_for_ops": min(ops, KEEP_SPAN_OPS),
        "spans": tracer.kept,
    }
    return metrics, pre, loop, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_library()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, run_child)

    metrics, pre, loop, extra = (per_layer if args.trace else end_to_end)(wl, args)
    problems = pre["problems"] + loop["problems"]
    correct = loop["failed"] == 0 and not problems
    # a checkout without git history still gives a valid result; the
    # source hash in the environment then identifies the code
    commit, missing = git_commit()
    warnings = [missing] if missing else []
    for warning in warnings:
        print(f"perfbench: warning: {warning}", file=sys.stderr)

    report = {
        "environment": environment(args, commit),
        "input_sizes": loop["sizes"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "error_rate": loop["failed"] / loop["attempted"],
        "failures": loop["failures"],
        "problems": problems,
        "warnings": warnings,
        "count_window_ops": pre["ops"],
        "exact_counts": {name: pre["counts"][name] for name in COUNT_NAMES},
        "run_counts": {name: loop["counts"][name] for name in COUNT_NAMES},
        "inputs_sha256": pre["digest"],
        # a failed op counts as infinitely slow; JSON has no infinity
        "metrics": {name: {"value": v if math.isfinite(v) else None, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")

    printed = {k: v for k, v in report.items() if k not in ("metrics", "spans")}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: report in {out_path.relative_to(ROOT)}")
    print("run " + json.dumps(printed))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'error_rate':42s} {report['error_rate']:14.6g} ({loop['failed']}/{loop['attempted']})")
    print(json.dumps({
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
