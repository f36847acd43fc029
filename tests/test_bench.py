import pytest

import zhegalkin.bench
from zhegalkin import run_transform_benchmark


def test_round_trip_mismatch_raises(monkeypatch):
    monkeypatch.setattr(zhegalkin.bench, "mobius_transform", lambda bits, arity: bits >> 1)
    with pytest.raises(RuntimeError, match="round-trip"):
        run_transform_benchmark(10, reps=1, seed=0)
