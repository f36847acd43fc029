"""Timing harness for the packed table<->ANF transform."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from .anf import MAX_DENSE_ARITY, mobius_transform

__all__ = ["BENCH_MAX_ARITY", "BENCH_MIN_ARITY", "TransformBenchReport", "run_transform_benchmark"]

BENCH_MIN_ARITY = 10
BENCH_MAX_ARITY = MAX_DENSE_ARITY


@dataclass
class TransformBenchReport:
    arity: int
    reps: int
    times: list = field(default_factory=list)  # seconds per forward+inverse pass

    @property
    def entries(self) -> int:
        return 1 << self.arity

    @property
    def min_seconds(self) -> float:
        return min(self.times)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.times)

    @property
    def entries_per_second(self) -> float:
        # two transforms per timed pass
        return 2 * self.entries / self.median_seconds

    def __str__(self):
        return (
            f"n={self.arity} entries={self.entries} reps={self.reps} "
            f"min={self.min_seconds * 1e3:.2f}ms "
            f"median={self.median_seconds * 1e3:.2f}ms "
            f"throughput={self.entries_per_second / 1e6:.1f}Mentry/s "
            "round-trip=verified"
        )


def run_transform_benchmark(arity: int, reps: int = 5, seed=None) -> TransformBenchReport:
    """Time forward+inverse transforms of random packed tables.

    Each rep uses a fresh random table and checks that the double
    transform reproduced it; a mismatch raises RuntimeError.
    """
    if not BENCH_MIN_ARITY <= arity <= BENCH_MAX_ARITY:
        raise ValueError(
            f"benchmark arity must be {BENCH_MIN_ARITY}..{BENCH_MAX_ARITY}, got {arity}"
        )
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    rng = random.Random(seed)
    width = 1 << arity
    mobius_transform(0, arity)  # warm the per-arity mask cache outside timing
    report = TransformBenchReport(arity=arity, reps=reps)
    for _ in range(reps):
        table = rng.getrandbits(width)
        start = time.perf_counter()
        spectrum = mobius_transform(table, arity)
        back = mobius_transform(spectrum, arity)
        ok = back == table
        report.times.append(time.perf_counter() - start)
        if not ok:
            raise RuntimeError(f"round-trip verification failed at n={arity}")
    return report
