"""Shared fixtures for swap-backend tests, and :func:`inline_hits_off`."""

from contextlib import contextmanager
from unittest.mock import patch

import pytest

from repro.core import ClusterConfig, DisaggregatedCluster
from repro.hw.latency import MiB
from repro.mem.page import make_pages
from repro.swap.base import VirtualMemory


@pytest.fixture
def cluster():
    return DisaggregatedCluster.build(
        ClusterConfig(
            num_nodes=4,
            servers_per_node=1,
            server_memory_bytes=32 * MiB,
            donation_fraction=0.3,
            receive_pool_slabs=16,
            send_pool_slabs=4,
            replication_factor=1,
            seed=11,
        )
    )


@pytest.fixture
def node(cluster):
    return cluster.nodes()[0]


@pytest.fixture
def pages():
    return make_pages(256, owner="test", compressibility_sampler=lambda: 3.0)


def run(cluster, generator):
    return cluster.run_process(generator)


def reference_serve_ops(self, operations, start, duration, window, timeline,
                        latencies=None):
    """:meth:`VirtualMemory.serve_ops` with no op served in place: every
    page goes through ``touch`` or ``access`` and every op ends in
    ``settle`` or ``flush``, with one histogram ``record`` per op."""
    env = self.env
    window_end = start + window
    window_ops = 0
    done = 0
    while env.now - start < duration:
        first_page, count, is_write = next(operations)
        began = env.now
        for page_id in range(first_page, first_page + count):
            if not self.touch(page_id, is_write):
                yield from self.access(page_id, is_write)
        if not self.settle():
            yield from self.flush()
        if latencies is not None:
            latencies.record(env.now - began)
        done += 1
        window_ops += 1
        while env.now >= window_end:
            timeline.append((window_end - start, window_ops / window))
            window_ops = 0
            window_end += window
    return done


@contextmanager
def inline_hits_off():
    """Serve every closed-loop KV op the slow way, through
    :func:`reference_serve_ops`, while the block runs."""
    with patch.object(VirtualMemory, "serve_ops", reference_serve_ops):
        yield
