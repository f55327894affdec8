"""Lane acquisition order of fabric transfers.

A transfer takes the sender's TX lane and the receiver's RX lane in one
canonical global order (whether it claims a free lane with no event or
waits on a request for it), the sort of ``"<src>:tx"`` and ``"<dst>:rx"``
as strings, so that no two transfers can hold-and-wait in a cycle.  The
order is a string order, not a numeric one: ``node10`` sorts before
``node9``.  A fan-out round takes its TX lane and every destination's
RX lane by the same rule.

On an idle fabric a transfer takes no lane at all (``Fabric.send_now``
does it in place), so each one here starts beside an event due at the
same instant: that tie sends it down the lane path.
"""

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric
from repro.sim import Environment

NODES = ["node9", "node10", "node1", "node2", 9, 10]


def sorted_key_rule(src, dst):
    """The lane names a transfer must request, in the order it must."""
    lanes = sorted(
        [
            ("{}:tx".format(src), "nic-tx:{}".format(src)),
            ("{}:rx".format(dst), "nic-rx:{}".format(dst)),
        ],
        key=lambda pair: pair[0],
    )
    return [name for _key, name in lanes]


def build(core_concurrency):
    env = Environment()
    fabric = Fabric(env, core_concurrency=core_concurrency)
    requested = []
    for node in NODES:
        nic = fabric.add_node(node)
        for lane in (nic.tx, nic.rx):
            record(lane, requested)
    if fabric._core is not None:
        record(fabric._core, requested)
    return env, fabric, requested


def record(lane, requested):
    """Log ``lane``'s name on every acquisition: a claim that granted,
    or a request (made after a refused claim)."""
    claim, request = lane.claim, lane.request

    def recording_claim():
        granted = claim()
        if granted is not None:
            requested.append(lane.name)
        return granted

    def recording_request():
        requested.append(lane.name)
        return request()

    lane.claim = recording_claim
    lane.request = recording_request


def tie(env):
    """An event due now: neither the transfer nor a claim may go
    ahead in place until it has fired."""
    env.timeout(0)


def move(env, fabric, src, dst, nbytes=4 * KiB):
    def mover():
        tie(env)
        yield from fabric.transfer(src, dst, nbytes)
        return env.now

    return env.run(until=env.process(mover()))


@pytest.mark.parametrize("core_concurrency", [0, 2])
def test_lane_order_matches_the_sorted_key_rule(core_concurrency):
    env, fabric, requested = build(core_concurrency)
    core = ["fabric-core"] if core_concurrency else []
    assert sorted_key_rule("node9", "node10") == [
        "nic-rx:node10", "nic-tx:node9",
    ]
    for _repeat in range(2):  # first use and the memoized reuse
        for src in NODES:
            for dst in NODES:
                del requested[:]
                move(env, fabric, src, dst)
                assert requested == sorted_key_rule(src, dst) + core, (src, dst)


@pytest.mark.parametrize("core_concurrency", [0, 1])
def test_crossing_transfers_at_one_instant_both_complete(core_concurrency):
    env, fabric, _requested = build(core_concurrency)
    finished = {}

    def mover(src, dst):
        yield from fabric.transfer(src, dst, 64 * KiB)
        finished[(src, dst)] = env.now

    for src, dst in [("node9", "node10"), ("node10", "node9"),
                     ("node1", "node2"), ("node2", "node1")]:
        env.process(mover(src, dst))
    env.run()
    assert len(finished) == 4
    single = fabric.transfer_time(64 * KiB)
    if core_concurrency:
        assert sorted(finished.values()) == pytest.approx(
            [single, 2 * single, 3 * single, 4 * single]
        )
    else:
        assert list(finished.values()) == pytest.approx([single] * 4)
    assert fabric.total_messages == 4
    for node in NODES:
        assert fabric.nic(node).tx.count == 0
        assert fabric.nic(node).rx.count == 0


def sorted_fanout_rule(src, dsts):
    """The lanes a fan-out round must request, in the order it must."""
    lanes = sorted(
        [("{}:tx".format(src), "nic-tx:{}".format(src))]
        + [("{}:rx".format(dst), "nic-rx:{}".format(dst)) for dst in dsts],
        key=lambda pair: pair[0],
    )
    return [name for _key, name in lanes]


def fan(env, fabric, src, dsts, nbytes=4 * KiB):
    def sender():
        tie(env)
        yield from fabric.fanout(src, dsts, nbytes)
        return env.now

    return env.run(until=env.process(sender()))


@pytest.mark.parametrize("core_concurrency", [0, 2])
def test_fanout_lane_order_matches_the_sorted_key_rule(core_concurrency):
    env, fabric, requested = build(core_concurrency)
    core = ["fabric-core"] if core_concurrency else []
    assert sorted_fanout_rule("node9", ["node10", "node1"]) == [
        "nic-rx:node10", "nic-rx:node1", "nic-tx:node9",  # "0" < ":"
    ]
    rounds = []
    for src in NODES:
        others = [node for node in NODES if node != src]
        rounds += [(src, others[:2]), (src, others[1::-1]), (src, others[-3:])]
    for _repeat in range(2):  # first use and the memoized reuse
        for src, dsts in rounds:
            del requested[:]
            fan(env, fabric, src, dsts)
            assert requested == sorted_fanout_rule(src, dsts) + core, (src, dsts)
    assert len(fabric._lane_order) == len(rounds)
    for node in NODES:
        assert fabric.nic(node).tx.count == fabric.nic(node).rx.count == 0
