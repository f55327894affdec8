"""Unit tests for metrics primitives."""

import math

import pytest

from repro.metrics import Counter, RunningStats, TimeSeries


def test_counter():
    counter = Counter("ops")
    counter.increment()
    counter.increment(5)
    assert counter.value == 6
    with pytest.raises(ValueError):
        counter.increment(-1)


def test_running_stats_mean_variance():
    stats = RunningStats()
    for value in (2.0, 4.0, 6.0):
        stats.record(value)
    assert stats.mean == pytest.approx(4.0)
    assert stats.variance == pytest.approx(4.0)
    assert stats.stdev == pytest.approx(2.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 6.0


def test_running_stats_empty():
    stats = RunningStats()
    assert stats.mean == 0.0
    assert stats.variance == 0.0
    assert stats.snapshot()["min"] is None


def test_running_stats_single_sample():
    stats = RunningStats()
    stats.record(7.0)
    assert stats.mean == 7.0
    assert stats.variance == 0.0


def test_timeseries_window_means():
    series = TimeSeries()
    for t in range(10):
        series.record(t * 0.1, float(t))
    windows = series.window_means(0.5)
    assert len(windows) >= 2
    assert windows[0][1] < windows[-1][1]


def test_timeseries_empty_and_validation():
    series = TimeSeries()
    assert series.window_means(1.0) == []
    with pytest.raises(ValueError):
        series.window_means(0)


def test_empty_snapshot_has_no_infinities():
    # An idle tier's latency stats must render cleanly: None min/max
    # (blank table cells), never +/-inf leaking out of the seed values.
    snapshot = RunningStats().snapshot()
    assert snapshot == {
        "count": 0, "mean": 0.0, "stdev": 0.0, "min": None, "max": None,
    }
    assert not any(
        isinstance(v, float) and math.isinf(v) for v in snapshot.values()
    )


def test_snapshot_round_trip_after_records():
    stats = RunningStats()
    for value in (2.0, 4.0, 9.0):
        stats.record(value)
    snapshot = stats.snapshot()
    assert snapshot["count"] == 3
    assert snapshot["min"] == 2.0
    assert snapshot["max"] == 9.0
    assert snapshot["mean"] == pytest.approx(5.0)
