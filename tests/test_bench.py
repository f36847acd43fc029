import statistics

import pytest

import zhegalkin.bench
from zhegalkin import TransformBenchReport, run_transform_benchmark


@pytest.mark.parametrize("times", [[0.3], [0.5, 0.1, 0.4], [0.4, 0.1], [0.2, 0.9, 0.1, 0.7]])
def test_median_matches_statistics(times):
    report = TransformBenchReport(arity=10, reps=len(times), times=times)
    assert report.median_seconds == statistics.median(times)


def test_round_trip_mismatch_raises(monkeypatch):
    monkeypatch.setattr(zhegalkin.bench, "mobius_transform", lambda bits, arity: bits >> 1)
    with pytest.raises(RuntimeError, match="round-trip"):
        run_transform_benchmark(10, reps=1, seed=0)
