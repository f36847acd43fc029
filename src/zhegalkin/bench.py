"""Timing harness for the packed table<->ANF transform."""

from __future__ import annotations

import random
import time
from collections import namedtuple

from .anf import MAX_DENSE_ARITY, _check_positive, mobius_transform

__all__ = ["TransformBenchReport", "run_transform_benchmark"]

BENCH_MIN_ARITY = 10
BENCH_MAX_ARITY = MAX_DENSE_ARITY


class TransformBenchReport(namedtuple("TransformBenchReport", "arity reps times")):
    """Timings of `reps` forward+inverse transform passes at one arity:
    `times` holds the seconds of each pass."""

    __slots__ = ()

    @property
    def median_seconds(self) -> float:
        ordered = sorted(self.times)
        if not ordered:
            raise ValueError("no median for empty data")
        mid = len(ordered) // 2
        return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2

    def __str__(self):
        entries = 1 << self.arity
        median = self.median_seconds
        return (
            f"n={self.arity} entries={entries} reps={self.reps} "
            f"min={min(self.times) * 1e3:.2f}ms "
            f"median={median * 1e3:.2f}ms "
            # two transforms per timed pass
            f"throughput={2 * entries / median / 1e6:.1f}Mentry/s "
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
    _check_positive(reps, "reps")
    rng = random.Random(seed)
    width = 1 << arity
    mobius_transform(0, arity)  # warm the per-arity mask cache outside timing
    times = []
    for _ in range(reps):
        table = rng.getrandbits(width)
        start = time.perf_counter()
        spectrum = mobius_transform(table, arity)
        back = mobius_transform(spectrum, arity)
        ok = back == table
        times.append(time.perf_counter() - start)
        if not ok:
            raise RuntimeError(f"round-trip verification failed at n={arity}")
    return TransformBenchReport(arity, reps, tuple(times))
