"""Unit tests for the log-bucketed latency histograms."""

import math
import random

import pytest

from repro.trace import HistogramSet, LatencyHistogram


def test_bucket_boundaries_are_half_open_powers_of_two():
    histogram = LatencyHistogram(least=1.0, buckets=8)
    # Bucket 0 holds everything at or below least.
    assert histogram.bucket_index(0.0) == 0
    assert histogram.bucket_index(0.5) == 0
    assert histogram.bucket_index(1.0) == 0
    # Bucket i holds (least * 2**(i-1), least * 2**i].
    assert histogram.bucket_index(1.0000001) == 1
    assert histogram.bucket_index(2.0) == 1
    assert histogram.bucket_index(2.0000001) == 2
    assert histogram.bucket_index(4.0) == 2
    assert histogram.bucket_index(7.9) == 3
    assert histogram.bucket_index(8.0) == 3
    # Overflow clamps to the last bucket.
    assert histogram.bucket_index(1e12) == 7


def test_bound_matches_bucket_index():
    histogram = LatencyHistogram(least=1e-9, buckets=48)
    for index in range(histogram.buckets - 1):
        bound = histogram.bound(index)
        # A value exactly at the bound lands in the bucket it bounds.
        assert histogram.bucket_index(bound) == index
        # A value just past it lands in the next one.
        assert histogram.bucket_index(bound * 1.001) == index + 1
    assert histogram.bound(histogram.buckets - 1) == math.inf


def test_record_rejects_negative():
    histogram = LatencyHistogram()
    with pytest.raises(ValueError):
        histogram.record(-1e-9)


def test_mean_and_count():
    histogram = LatencyHistogram()
    for value in (1e-6, 2e-6, 3e-6):
        histogram.record(value)
    assert histogram.total == 3
    assert histogram.mean == pytest.approx(2e-6)


def test_percentile_brackets_exact_quantiles():
    """Estimates stay within the exact quantile's bucket (one octave)."""
    values = [1e-6 * (1.1 ** i) for i in range(200)]
    histogram = LatencyHistogram()
    for value in values:
        histogram.record(value)
    ordered = sorted(values)
    for fraction in (0.50, 0.90, 0.99, 0.999):
        exact = ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
        estimate = histogram.percentile(fraction)
        # Interpolation keeps the estimate inside the bucket that holds
        # the exact quantile: never below its lower bound, never above
        # its upper bound.
        assert exact / 2.0 <= estimate <= exact * 2.0


def test_percentile_interpolates_within_bucket():
    histogram = LatencyHistogram(least=1.0, buckets=8)
    # 100 values in bucket 2, i.e. (2, 4].
    for _ in range(100):
        histogram.record(3.0)
    # The median rank is halfway through the bucket's mass: midpoint.
    assert histogram.percentile(0.5) == pytest.approx(3.0)
    assert histogram.percentile(0.25) == pytest.approx(2.5)
    assert histogram.percentile(1.0) == pytest.approx(4.0)


def test_percentile_accessors_are_monotone():
    histogram = LatencyHistogram()
    for i in range(1000):
        histogram.record(1e-6 * (1 + i))
    assert histogram.p50 <= histogram.p90 <= histogram.p99 <= histogram.p999
    assert histogram.snapshot()["p999_s"] == histogram.p999


def test_percentile_edge_cases():
    histogram = LatencyHistogram()
    assert histogram.percentile(0.5) == 0.0  # empty
    histogram.record(1e-3)
    assert histogram.percentile(0.0) <= histogram.percentile(1.0)
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_percentile_overflow_bucket_clamps_to_last_finite_bound():
    histogram = LatencyHistogram(least=1.0, buckets=4)
    for _ in range(10):
        histogram.record(1e9)
    assert histogram.percentile(0.5) == histogram.least * 2.0 ** (
        histogram.buckets - 2
    )


def test_merge_is_associative_and_commutative():
    def build(values):
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        return histogram

    a = build([1e-6, 5e-6])
    b = build([2e-3, 7e-9])
    c = build([0.5, 1e-8, 3e-5])

    left = build([]).merge(a).merge(b).merge(c)
    right = build([]).merge(a).merge(b.copy().merge(c))
    swapped = build([]).merge(c).merge(b).merge(a)
    assert left.counts == right.counts == swapped.counts
    assert left.total == right.total == swapped.total
    assert left.sum == pytest.approx(right.sum) and left.sum == pytest.approx(
        swapped.sum
    )


def test_merge_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=8).merge(LatencyHistogram(buckets=16))


def test_json_round_trip():
    histogram = LatencyHistogram()
    for value in (1e-7, 3e-4, 2.0):
        histogram.record(value)
    clone = LatencyHistogram.from_json(histogram.to_json())
    assert clone.counts == histogram.counts
    assert clone.total == histogram.total
    assert clone.sum == histogram.sum


def test_histogram_set_rows_are_sorted_and_flat():
    collection = HistogramSet()
    collection.record("tier", "remote.get", 1e-5)
    collection.record("net", "send.data", 2e-6)
    collection.record("net", "send.data", 4e-6)
    rows = collection.rows()
    assert [(row["category"], row["op"]) for row in rows] == [
        ("net", "send.data"), ("tier", "remote.get"),
    ]
    assert rows[0]["count"] == 2
    assert {"mean_s", "p50_s", "p90_s", "p99_s"} <= set(rows[0])


def test_histogram_set_merge_and_round_trip():
    first = HistogramSet()
    first.record("tier", "sm.put", 1e-6)
    second = HistogramSet()
    second.record("tier", "sm.put", 2e-6)
    second.record("fault", "major", 1e-3)
    first.merge(second)
    assert first.get("tier", "sm.put").total == 2
    assert first.get("fault", "major").total == 1
    clone = HistogramSet.from_json(first.to_json())
    assert clone.rows() == first.rows()


@pytest.mark.parametrize("seed", range(4))
def test_record_many_is_record_in_order(seed):
    rng = random.Random(seed)
    # Magnitudes far apart make the float sum depend on its order.
    values = [
        rng.choice((0.0, 1e-8, 1e-7, 2e-7, 3.5e-6, 1.0, 1.0, 1e16))
        * rng.uniform(0.5, 2.0)
        for _ in range(500)
    ]
    one_by_one = LatencyHistogram(least=1e-7, buckets=32)
    for value in values:
        one_by_one.record(value)
    batched = LatencyHistogram(least=1e-7, buckets=32)
    grouped = 0.0
    for start in range(0, len(values), 37):
        batched.record_many(values[start:start + 37])
        grouped += sum(values[start:start + 37])
    batched.record_many([])
    assert batched.to_json() == one_by_one.to_json()
    assert grouped != one_by_one.sum  # the data tells the orders apart


def test_record_many_rejects_a_negative_and_records_nothing():
    histogram = LatencyHistogram(least=1e-7, buckets=32)
    with pytest.raises(ValueError):
        histogram.record_many([1e-6, -1e-9])
    assert histogram.to_json() == LatencyHistogram(least=1e-7, buckets=32).to_json()
