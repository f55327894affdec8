"""``VirtualMemory.settle`` and the ``buffered()`` contract.

``settle()`` skips the ``flush()`` generator when the backend reports
nothing buffered, so a backend whose ``drain`` can flush writes must say
when it holds some: otherwise a partial batch would never be shipped.
"""

import importlib
import pkgutil
from unittest.mock import patch

import pytest

import repro.swap
import repro.tiers
from repro.core import DisaggregatedCluster
from repro.experiments.runner import default_cluster_config, run_kv_workload
from repro.mem.page import make_pages
from repro.swap.base import SwapBackend, VirtualMemory
from repro.swap.fastswap import FastSwap, FastSwapConfig
from repro.swap.linux_swap import LinuxDiskSwap
from repro.tiers.cascade import TierCascade
from repro.tiers.disk import DiskSwapTier
from repro.tiers.remote import RemoteRdmaTier
from repro.workloads.kv import KV_WORKLOADS

from tests.swap.conftest import run


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _import_all(package):
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)


@pytest.mark.parametrize("base", [SwapBackend], ids=lambda c: c.__name__)
def test_every_class_that_drains_says_when_it_is_buffered(base):
    for package in (repro.swap, repro.tiers):
        _import_all(package)
    draining = [cls for cls in _subclasses(base) if cls.drain is not base.drain]
    assert draining, "no {} subclass overrides drain".format(base.__name__)
    missing = [
        cls.__qualname__ for cls in draining if cls.buffered is base.buffered
    ]
    assert not missing, "drain without buffered: {}".format(missing)


def _linux(cluster, node):
    return LinuxDiskSwap(node)


def _fs_rdma(cluster, node):
    return FastSwap(node, cluster, config=FastSwapConfig(sm_fraction=0.0))


def _drained(backend):
    """What a drain flushes: the disk tier's partial writeback bio, or
    the remote tier's partial batch."""
    for tier in backend.tiers:
        if isinstance(tier, DiskSwapTier):
            return len(tier._pending_write_slots)
        if isinstance(tier, RemoteRdmaTier):
            return len(tier._pending)
    raise AssertionError("no buffering tier in {}".format(backend.name))


def _end_of_op(build, use_settle):
    """Buffer three swap-outs, then end an operation with time pending;
    returns what the backend held before and after, and the clock."""
    cluster = DisaggregatedCluster.build(default_cluster_config(seed=11))
    node = cluster.nodes()[0]
    pages = make_pages(32, owner="test", compressibility_sampler=lambda: 3.0)
    backend = build(cluster, node)
    mmu = VirtualMemory(cluster.env, pages[:16], 16, backend)
    seen = {}

    def scenario():
        yield from backend.setup()
        for page in pages[16:19]:
            yield from backend.swap_out(page)
        assert backend.pending_writes == _drained(backend)
        seen["before"] = (backend.buffered(), _drained(backend))
        yield from mmu.access(pages[0].page_id)
        assert mmu.touch(pages[0].page_id)  # a hit leaves time pending
        if use_settle:
            seen["settled"] = mmu.settle()
            if not seen["settled"]:
                yield from mmu.flush()
        else:
            yield from mmu.flush()
        assert backend.pending_writes == _drained(backend)
        seen["after"] = (backend.buffered(), _drained(backend))
        seen["pending"] = mmu._pending_time
        seen["now"] = cluster.env.now

    cluster.run_process(scenario())
    return seen


@pytest.mark.parametrize("build", [_linux, _fs_rdma], ids=["disk", "remote"])
def test_settle_never_skips_a_non_empty_drain(build):
    settled = _end_of_op(build, use_settle=True)
    assert settled["before"] == (True, 3)
    assert settled["settled"] is False
    assert settled["after"] == (False, 0)
    assert settled["pending"] == 0.0
    flushed = _end_of_op(build, use_settle=False)
    del settled["settled"]
    assert settled == flushed


def test_settle_is_event_free_when_nothing_is_buffered(cluster, node, pages):
    backend = _fs_rdma(cluster, node)
    mmu = VirtualMemory(cluster.env, pages[:16], 16, backend)
    seen = []

    def scenario():
        yield from backend.setup()
        yield from mmu.access(pages[0].page_id)
        assert mmu.touch(pages[0].page_id)
        pending = mmu._pending_time
        before = cluster.env.now
        heap = len(cluster.env._heap)
        seen.append(mmu.settle())
        seen.append(cluster.env.now == before + pending)
        seen.append(len(cluster.env._heap) == heap)
        seen.append(mmu._pending_time)

    run(cluster, scenario())
    assert seen == [True, True, True, 0.0]


def _held(cascade):
    """Writes the cascade's draining tiers hold, counted from their buffers."""
    held = 0
    for tier in cascade._draining_tiers:
        if isinstance(tier, DiskSwapTier):
            held += len(tier._pending_write_slots)
        elif isinstance(tier, RemoteRdmaTier):
            held += len(tier._pending)
        else:
            raise AssertionError("unknown draining tier {}".format(tier.name))
    return held


@pytest.mark.parametrize("backend_name", ["linux", "zswap", "fastswap"])
def test_the_pending_write_count_is_what_the_tiers_hold(backend_name):
    # buffered() answers from a count the tiers keep; check it against
    # their buffers at every op end of a write-heavy KV run.
    checks = []
    original = TierCascade.buffered

    def checked(self):
        checks.append(self.pending_writes == _held(self))
        return original(self)

    spec = KV_WORKLOADS["voltdb"].with_overrides(keys=256)
    with patch.object(TierCascade, "buffered", checked):
        run_kv_workload(backend_name, spec, 0.5, duration=0.05, window=0.01,
                        fastswap_config=FastSwapConfig(sm_fraction=0.3))
    assert len(checks) > 100
    assert all(checks)


def test_discarding_a_buffered_page_uncounts_it(cluster, node, pages):
    backend = _fs_rdma(cluster, node)
    seen = []

    def scenario():
        yield from backend.setup()
        for page in pages[:3]:
            yield from backend.swap_out(page)
        seen.append((backend.pending_writes, _drained(backend)))
        backend.discard(pages[1])
        seen.append((backend.pending_writes, _drained(backend)))
        yield from backend.drain()
        seen.append((backend.pending_writes, backend.buffered()))

    run(cluster, scenario())
    assert seen == [(3, 3), (2, 2), (0, False)]
