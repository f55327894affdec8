"""Tests for the oversubscribed-fabric core model."""

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric
from repro.sim import Environment


def build(core_concurrency):
    env = Environment()
    fabric = Fabric(env, core_concurrency=core_concurrency)
    for i in range(8):
        fabric.add_node("n{}".format(i))
    return env, fabric


def run_parallel_transfers(env, fabric, pairs, nbytes=1024 * KiB):
    finished = []

    def mover(src, dst):
        yield from fabric.transfer(src, dst, nbytes)
        finished.append(env.now)

    for src, dst in pairs:
        env.process(mover(src, dst))
    env.run()
    return max(finished)


DISJOINT_PAIRS = [("n0", "n1"), ("n2", "n3"), ("n4", "n5"), ("n6", "n7")]


def test_nonblocking_core_runs_disjoint_flows_in_parallel():
    env, fabric = build(core_concurrency=0)
    makespan = run_parallel_transfers(env, fabric, DISJOINT_PAIRS)
    assert makespan == pytest.approx(fabric.transfer_time(1024 * KiB))


def test_oversubscribed_core_serializes_excess_flows():
    env, fabric = build(core_concurrency=2)
    makespan = run_parallel_transfers(env, fabric, DISJOINT_PAIRS)
    single = fabric.transfer_time(1024 * KiB)
    assert makespan == pytest.approx(2 * single)


def test_core_capacity_one_fully_serializes():
    env, fabric = build(core_concurrency=1)
    makespan = run_parallel_transfers(env, fabric, DISJOINT_PAIRS)
    assert makespan == pytest.approx(4 * fabric.transfer_time(1024 * KiB))


def test_no_deadlock_with_core_and_crossing_flows():
    env, fabric = build(core_concurrency=2)
    pairs = [("n0", "n1"), ("n1", "n0"), ("n1", "n2"), ("n2", "n1"),
             ("n2", "n0"), ("n0", "n2")]
    makespan = run_parallel_transfers(env, fabric, pairs, nbytes=64 * KiB)
    assert makespan > 0


def test_cluster_config_wires_core_concurrency():
    from repro.core import ClusterConfig, DisaggregatedCluster

    cluster = DisaggregatedCluster.build(
        ClusterConfig(num_nodes=4, fabric_core_concurrency=1, seed=1)
    )
    env, fabric = cluster.env, cluster.fabric
    a, b, c, d = fabric.node_ids[:4]
    start = env.now
    makespan = run_parallel_transfers(env, fabric, [(a, b), (c, d)])
    # Two disjoint flows through a one-transfer core run back to back.
    assert makespan - start == pytest.approx(
        2 * fabric.transfer_time(1024 * KiB)
    )
