"""An interrupted waiter must not leave a device booked forever.

``call_with_timeout`` interrupts an operation that is still waiting.
On a :class:`Resource` (disks, DRAM) its queued request is withdrawn
when the operation's ``finally`` releases it; otherwise the slot would
later be granted to nobody and stay held forever, starving every later
requester.  A NIC lane is a busy-until clock instead: a cancelled
transfer keeps its booking (its bytes are already on the wire), and
the lane is free again when that booking ends.
"""

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric
from repro.net.errors import OpTimeout
from repro.net.retry import call_with_timeout
from repro.sim import Environment, PriorityResource, Resource


def hold(env, lane, seconds, log, name):
    request = lane.request()
    try:
        yield request
        log.append((name, "got", env.now))
        yield env.timeout(seconds)
    finally:
        lane.release(request)


def timed_out(env, operation, timeout, log, name):
    try:
        yield from call_with_timeout(env, operation, timeout)
    except OpTimeout:
        log.append((name, "timed out", env.now))


def later(env, delay, operation):
    yield env.timeout(delay)
    yield from operation


@pytest.mark.parametrize("kind", [Resource, PriorityResource])
def test_interrupted_waiter_does_not_leak_the_slot(kind):
    env = Environment()
    lane = kind(env, capacity=1, name="lane")
    log = []
    env.process(hold(env, lane, 5.0, log, "holder"))
    env.process(timed_out(env, hold(env, lane, 1.0, log, "waiter"), 2, log,
                          "waiter"))
    env.process(later(env, 3.0, hold(env, lane, 1.0, log, "late")))
    env.run()
    assert log == [
        ("holder", "got", 0.0),
        ("waiter", "timed out", 2.0),
        ("late", "got", 5.0),
    ]
    assert lane.count == 0 and lane.queue_length == 0


def test_release_withdraws_a_queued_request_and_keeps_fifo_order():
    env = Environment()
    lane = Resource(env, capacity=1)
    first, second, third = lane.request(), lane.request(), lane.request()
    lane.release(second)  # still queued: withdrawn, never granted
    assert lane.queue_length == 1
    lane.release(first)
    assert third.triggered and not second.triggered
    assert lane.users == {third}


def test_interrupted_fabric_transfer_does_not_leak_a_lane():
    env = Environment()
    fabric = Fabric(env)
    for node in ("a", "b", "c"):
        fabric.add_node(node)
    big = fabric.transfer_time(1024 * KiB)
    small = 4 * KiB
    done = {}

    def move(name, src, dst, nbytes):
        yield from fabric.transfer(src, dst, nbytes)
        done[name] = env.now

    # The holder books b's RX lane; the waiter, booked behind it, gives
    # up at half time but keeps its booking; a later transfer into b
    # runs after both.
    env.process(move("holder", "a", "b", 1024 * KiB))
    log = []
    env.process(later(env, big / 4, timed_out(
        env, move("waiter", "c", "b", small), big / 4, log, "waiter"
    )))
    env.process(later(env, 0.75 * big, move("late", "c", "b", small)))
    env.run()
    wire = fabric.transfer_time(small)
    assert log == [("waiter", "timed out", pytest.approx(big / 2))]
    assert set(done) == {"holder", "late"}
    assert done["late"] == pytest.approx(big + 2 * wire)
    assert fabric.nic("b").rx_free_at == done["late"]
    assert fabric.nic("c").tx_free_at == done["late"]
    # Only the two completed transfers count.
    assert fabric.total_messages == 2
    assert fabric.nic("b").bytes_received == 1024 * KiB + small


def test_interrupted_fanout_does_not_leak_a_lane():
    env = Environment()
    fabric = Fabric(env)
    for node in ("a", "b", "c", "d"):
        fabric.add_node(node)
    big = fabric.transfer_time(1024 * KiB)
    done = {}

    def fan(name, src, dsts):
        yield from fabric.fanout(src, dsts, 4 * KiB)
        done[name] = env.now

    def move(name, src, dst, nbytes):
        yield from fabric.transfer(src, dst, nbytes)
        done[name] = env.now

    env.process(move("holder", "d", "c", 1024 * KiB))
    log = []
    env.process(later(env, big / 4, timed_out(
        env, fan("waiter", "a", ["b", "c"]), big / 4, log, "waiter"
    )))
    env.process(later(env, 0.75 * big, fan("late", "a", ["b", "c"])))
    env.run()
    wire = fabric.transfer_time(4 * KiB)
    assert log == [("waiter", "timed out", pytest.approx(big / 2))]
    assert set(done) == {"holder", "late"}
    assert done["late"] == pytest.approx(big + 2 * wire)
    for lane in ("b", "c"):
        assert fabric.nic(lane).rx_free_at == done["late"]
    assert fabric.nic("a").tx_free_at == done["late"]
