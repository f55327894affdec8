"""Crossing transfers need no lane order.

Under hold-and-wait a transfer had to take its sender's TX lane and its
receiver's RX lane in one canonical global order, or two transfers
crossing between the same nodes could each hold one lane and wait for
the other.  A busy-until lane is booked, not held: a transfer books all
its lanes at submission and waits once, so transfers crossing at one
instant, between nodes whose names sort unlike their numbers or are
not strings at all, all complete.
"""

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric
from repro.sim import Environment

NODES = ["node9", "node10", "node1", "node2", 9, 10]


def build(core_concurrency):
    env = Environment()
    fabric = Fabric(env, core_concurrency=core_concurrency)
    for node in NODES:
        fabric.add_node(node)
    return env, fabric


@pytest.mark.parametrize("core_concurrency", [0, 1])
def test_crossing_transfers_at_one_instant_both_complete(core_concurrency):
    env, fabric = build(core_concurrency)
    finished = {}

    def mover(src, dst):
        yield from fabric.transfer(src, dst, 64 * KiB)
        finished[(src, dst)] = env.now

    pairs = [("node9", "node10"), ("node10", "node9"), ("node1", "node2"),
             ("node2", "node1"), (9, 10), (10, 9)]
    for src, dst in pairs:
        env.process(mover(src, dst))
    env.run()
    assert list(finished) == pairs
    single = fabric.transfer_time(64 * KiB)
    if core_concurrency:
        # One core slot runs them in turn, in submission order.
        assert list(finished.values()) == pytest.approx(
            [single * (index + 1) for index in range(len(pairs))]
        )
    else:
        assert list(finished.values()) == pytest.approx([single] * len(pairs))
    assert fabric.total_messages == len(pairs)
    for node in NODES:
        nic = fabric.nic(node)
        assert max(nic.tx_free_at, nic.rx_free_at) <= env.now
