"""The unified WorkloadSpec protocol: dispatch stays equal, nothing warns."""

import random
import warnings

import pytest

from repro.sim.rng import RngStreams
from repro.workloads import KV_WORKLOADS, ML_WORKLOADS
from repro.workloads.batch import ZipfBatchSpec
from repro.workloads.spec import iter_accesses, spec_batch
from repro.workloads.traces import record_trace


def test_new_names_do_not_warn():
    spec = ML_WORKLOADS["pagerank"].with_overrides(pages=32, iterations=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streamed = list(spec.iter_accesses(random.Random(7)))
        batch = spec.as_batch(random.Random(7))
    assert list(batch.pairs()) == streamed


def test_iter_accesses_helper_dispatches_to_protocol():
    spec = ML_WORKLOADS["als"].with_overrides(pages=32, iterations=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        via_helper = list(iter_accesses(spec, random.Random(4)))
    assert via_helper == list(spec.iter_accesses(random.Random(4)))


def test_iter_accesses_helper_rejects_non_specs():
    with pytest.raises(TypeError):
        iter_accesses(object(), random.Random(0))


def test_spec_batch_helper_prefers_native_as_batch():
    spec = ZipfBatchSpec(pages=32, length=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = spec_batch(spec, random.Random(5))
    assert batch.addresses == spec.as_batch(random.Random(5)).addresses


def test_spec_batch_helper_passes_length_to_infinite_specs():
    spec = KV_WORKLOADS["memcached"].with_overrides(keys=64)
    batch = spec_batch(spec, RngStreams(3).stream("ops"), 100)
    assert len(batch) == 100


def test_spec_batch_helper_drains_duck_typed_streams():
    class Stream:
        def iter_accesses(self, rng):
            return iter([(1, False), (2, True)])

    batch = spec_batch(Stream(), random.Random(0))
    assert list(batch.pairs()) == [(1, False), (2, True)]


def test_kv_page_level_surface_expands_operations():
    spec = KV_WORKLOADS["voltdb"].with_overrides(keys=32)
    pairs = []
    stream = spec.iter_accesses(RngStreams(9).stream("ops"))
    for _ in range(50):
        pairs.append(next(stream))
    ops = spec.ops_batch(RngStreams(9).stream("ops"), 25)
    expanded = [
        (first + offset, write)
        for first, count, write in ops
        for offset in range(count)
    ]
    assert pairs == expanded[:50]

    batch = spec.as_batch(RngStreams(9).stream("ops"), 25)
    assert list(batch.pairs()) == expanded


def test_every_spec_has_arrival_process_hook():
    specs = [
        ML_WORKLOADS["kmeans"],
        KV_WORKLOADS["redis"],
        ZipfBatchSpec(),
        record_trace(
            ML_WORKLOADS["kmeans"].with_overrides(pages=16, iterations=1),
            random.Random(0),
        ),
    ]
    for spec in specs:
        assert spec.arrival_process is None
