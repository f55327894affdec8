"""The batched workload contract: batches must equal their streams."""

import random

import pytest

from repro.sim.rng import RngStreams
from repro.workloads import KV_WORKLOADS, ML_WORKLOADS, kv
from repro.workloads.batch import AccessBatch, ZipfBatchSpec, materialize
from repro.workloads.patterns import ZipfSampler
from repro.workloads.traces import record_trace


def test_access_batch_validates_parallel_arrays():
    with pytest.raises(ValueError):
        AccessBatch([1, 2], [True])
    with pytest.raises(ValueError):
        AccessBatch([1, 2], [True, False], gaps=[0.1])


def test_access_batch_round_trip():
    batch = AccessBatch.from_pairs([(3, True), (7, False)])
    assert len(batch) == 2
    assert list(batch.pairs()) == [(3, True), (7, False)]


def test_materialize_falls_back_to_streamed_trace():
    recorded = record_trace(
        ML_WORKLOADS["kmeans"].with_overrides(pages=64),
        RngStreams(5).stream("trace"),
    )
    batch = materialize(recorded, RngStreams(5).stream("trace"))
    assert list(batch.pairs()) == list(recorded.iter_accesses())


@pytest.mark.parametrize("name", sorted(ML_WORKLOADS))
def test_ml_trace_batch_equals_trace(name):
    spec = ML_WORKLOADS[name].with_overrides(pages=128)
    batch = spec.as_batch(RngStreams(11).stream("trace"))
    streamed = list(spec.iter_accesses(RngStreams(11).stream("trace")))
    assert list(batch.pairs()) == streamed


@pytest.mark.parametrize("name", sorted(KV_WORKLOADS))
def test_kv_operations_batch_equals_operations_prefix(name):
    spec = KV_WORKLOADS[name].with_overrides(keys=200)
    batched = spec.ops_batch(RngStreams(7).stream("ops"), 500)
    stream = spec.iter_operations(RngStreams(7).stream("ops"))
    assert batched == [next(stream) for _ in range(500)]


def test_zipf_batch_spec_trace_is_its_batch():
    spec = ZipfBatchSpec(pages=64, length=256)
    batch = spec.as_batch(random.Random(3))
    assert len(batch) == 256
    assert all(0 <= address < 64 for address in batch.addresses)
    assert list(spec.iter_accesses(random.Random(3))) == list(batch.pairs())


def test_zipf_batch_spec_overrides():
    spec = ZipfBatchSpec().with_overrides(pages=16, length=8)
    assert spec.pages == 16 and len(spec.as_batch(random.Random(0))) == 8


def test_sample_many_matches_repeated_sample():
    one = ZipfSampler(100, 0.9, random.Random(21), locality_block=8)
    many = ZipfSampler(100, 0.9, random.Random(21), locality_block=8)
    assert many.sample_many(400) == [one.sample() for _ in range(400)]


def test_sample_many_without_locality():
    one = ZipfSampler(50, 1.2, random.Random(9))
    many = ZipfSampler(50, 1.2, random.Random(9))
    assert many.sample_many(200) == [one.sample() for _ in range(200)]


def _per_op_reference(spec, rng, count):
    """One operation at a time: the Zipf key draw, then the write coin."""
    zipf = ZipfSampler(spec.keys, spec.zipf_alpha, rng,
                       locality_block=min(spec.locality_block, spec.keys))
    ops = []
    for _ in range(count):
        key = zipf.sample()
        is_write = rng.random() >= spec.read_fraction
        ops.append((key * spec.pages_per_key, spec.pages_per_key, is_write))
    return ops


#: Below one block, exactly one block, and ragged counts past it.
KV_DRAW_COUNTS = (1, 7, kv.OPS_BLOCK, kv.OPS_BLOCK + 1, 2 * kv.OPS_BLOCK + 37)


@pytest.mark.parametrize("count", KV_DRAW_COUNTS)
@pytest.mark.parametrize("name", sorted(KV_WORKLOADS))
def test_kv_block_draws_equal_the_per_op_reference(name, count):
    spec = KV_WORKLOADS[name].with_overrides(keys=300)
    expected = _per_op_reference(spec, RngStreams(13).stream("ops"), count)
    stream = spec.iter_operations(RngStreams(13).stream("ops"))
    assert [next(stream) for _ in range(count)] == expected
    assert spec.ops_batch(RngStreams(13).stream("ops"), count) == expected
    batch = spec.as_batch(RngStreams(13).stream("ops"), count)
    assert list(batch.pairs()) == [
        (first + offset, is_write)
        for first, pages, is_write in expected
        for offset in range(pages)
    ]
    streamed = spec.iter_accesses(RngStreams(13).stream("ops"))
    assert [next(streamed) for _ in range(len(batch))] == list(batch.pairs())


def test_kv_reference_covers_multi_page_keys_and_writes():
    spec = KV_WORKLOADS["voltdb"].with_overrides(keys=300)
    ops = _per_op_reference(spec, RngStreams(13).stream("ops"), 200)
    assert spec.pages_per_key == 2
    assert {pages for _first, pages, _write in ops} == {2}
    assert {is_write for _first, _pages, is_write in ops} == {False, True}
