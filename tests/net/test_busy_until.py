"""A NIC lane is a busy-until clock.

Every transfer or fan-out round is booked when it is submitted: it
begins at ``max(now, free_at)`` over the sender's TX lane, each
receiver's RX lane and the earliest-free core clock, and ends one wire
time later, which becomes each of those clocks' ``free_at``.  A path
down at submission books nothing and fails at once; a path down at the
end fails the transfer there, keeping its booking.

The seeded model below drives random transfers and fan-outs beside
crashes, partitions and degraded links, and checks each against a
shadow of those clocks kept by the test: its begin, its end, its
outcome, and that the bytes and messages counted are exactly those of
the transfers that succeeded.
"""

import random
from collections import Counter

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric
from repro.net.errors import NetworkError
from repro.sim import Environment

NODES = ("n0", "n1", "n2", "n3", "n4")


class Shadow:
    """The test's own busy-until clocks and byte/message tallies."""

    def __init__(self, fabric, core):
        self.fabric = fabric
        self.free_at = Counter()
        self.core = [0.0] * core
        self.sent = Counter()
        self.received = Counter()
        self.messages = Counter()

    def book(self, src, dsts, nbytes):
        """``(begin, end)`` of a round submitted now, or ``None`` if a
        path is down; books its lanes like the fabric must."""
        fabric = self.fabric
        if not all(fabric.is_reachable(src, dst) for dst in dsts):
            return None
        now = fabric.env.now
        lanes = [(src, "tx")] + [(dst, "rx") for dst in dsts]
        begin = max([now] + [self.free_at[lane] for lane in lanes])
        slot = None
        if self.core:
            slot = self.core.index(min(self.core))
            begin = max(begin, self.core[slot])
        wire = fabric.transfer_time(nbytes) * max(
            fabric.degrade_factor(src, dst) for dst in dsts
        )
        end = begin + wire
        for lane in lanes:
            self.free_at[lane] = end
        if slot is not None:
            self.core[slot] = end
        return begin, end

    def count(self, src, dsts, nbytes):
        self.sent[src] += nbytes * len(dsts)
        self.messages[src] += 1
        for dst in dsts:
            self.received[dst] += nbytes


def sender(env, fabric, shadow, rng, src, log):
    for index in range(12):
        yield env.timeout(rng.choice([0.0, 0.0, 1e-6, 3e-6, 11e-6]))
        width = rng.choice([1, 1, 2, 3])
        dsts = tuple(rng.sample([n for n in NODES if n != src], width))
        nbytes = rng.choice([4, 16, 64, 256]) * KiB
        booked = shadow.book(src, dsts, nbytes)
        submitted = env.now
        try:
            if width == 1:
                yield from fabric.transfer(src, dsts[0], nbytes)
            else:
                yield from fabric.fanout(src, dsts, nbytes)
        except NetworkError:
            ok = False
        else:
            ok = True
            shadow.count(src, dsts, nbytes)
        log.append((src, index, submitted, booked, env.now, ok, dsts))


def chaos(env, fabric, rng, log):
    for _ in range(10):
        yield env.timeout(rng.uniform(2e-6, 25e-6))
        kind = rng.choice(["crash", "partition", "degrade"])
        node = rng.choice(NODES)
        if kind == "crash":
            fabric.set_node_down(node, not fabric.is_node_down(node))
        elif kind == "partition":
            peer = rng.choice([n for n in NODES if n != node])
            fabric.set_link_down(node, peer, fabric.is_reachable(node, peer))
        else:
            fabric.set_degraded(node, rng.choice([1.0, 1.5, 2.75]))
        log.append((env.now, kind, node))


def simulate(seed, core):
    rng = random.Random(seed)
    env = Environment()
    fabric = Fabric(env, core_concurrency=core)
    for node in NODES:
        fabric.add_node(node)
    shadow = Shadow(fabric, core)
    log, faults = [], []
    for src in NODES:
        env.process(sender(env, fabric, shadow, random.Random(rng.random()),
                           src, log))
    env.process(chaos(env, fabric, random.Random(rng.random()), faults))
    env.run()
    return fabric, shadow, log, faults


@pytest.mark.parametrize("core", [0, 1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_every_transfer_runs_on_its_lanes_busy_until_clocks(seed, core):
    fabric, shadow, log, faults = simulate(seed, core)
    assert len(log) == 12 * len(NODES) and faults
    outcomes = Counter()
    for src, index, submitted, booked, finished, ok, dsts in log:
        if booked is None:
            # A path down at submission: fails at once, books nothing.
            assert not ok and finished == submitted, (src, index)
            outcomes["refused"] += 1
            continue
        begin, end = booked
        assert begin >= submitted
        assert finished == pytest.approx(end, rel=1e-12, abs=1e-15)
        outcomes["ok" if ok else "lost"] += 1
        outcomes["queued"] += begin > submitted
    # Not vacuous: lanes were contended, and faults refused and lost
    # transfers.
    assert outcomes["ok"] and outcomes["queued"] and outcomes["refused"]
    for node in NODES:
        nic = fabric.nic(node)
        assert nic.tx_free_at == pytest.approx(shadow.free_at[(node, "tx")])
        assert nic.rx_free_at == pytest.approx(shadow.free_at[(node, "rx")])
        assert nic.bytes_sent == shadow.sent[node]
        assert nic.bytes_received == shadow.received[node]
        assert nic.messages_sent == shadow.messages[node]
    assert fabric.total_bytes == sum(shadow.sent.values())
    assert fabric.total_bytes == sum(shadow.received.values())
    assert fabric.total_messages == outcomes["ok"]


def test_some_seed_loses_a_transfer_mid_flight():
    lost = sum(
        1
        for seed in range(6)
        for entry in simulate(seed, 0)[2]
        if entry[3] is not None and not entry[5]
    )
    assert lost
