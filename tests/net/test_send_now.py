"""``Fabric.send_now`` must be invisible: an idle transfer is arithmetic.

A transfer (or fan-out round) whose lanes have no holder and no waiter,
whose core is unlimited, whose paths are up and whose end is strictly
next is done in place: the clock moves by the wire time, no lane is
taken and the counters move as the lane path would move them.  In
every other case ``send_now`` refuses and changes nothing, and the
transfer takes the lane path.  The reference refuses every
``send_now`` (:func:`reference_send`); a seeded mixed model must log the
same ``(run call, now, tag)`` sequence, leave the same clocks and end
with the same fabric and NIC counters under both.
"""

import random
from contextlib import contextmanager

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric, NetworkError, call_with_timeout
from repro.sim import Environment
from repro.sim.resources import Request
from tests.net.test_lane_order import record

NODES = ("a", "b", "c", "d")


@contextmanager
def reference_send():
    """``Fabric.send_now`` that always refuses: every transfer takes
    its lanes."""
    saved = Fabric.send_now
    Fabric.send_now = lambda self, src, dsts, nbytes_each, base_latency=None: False
    try:
        yield
    finally:
        Fabric.send_now = saved


def build(core_concurrency=0):
    env = Environment()
    fabric = Fabric(env, core_concurrency=core_concurrency)
    for node in NODES:
        fabric.add_node(node)
    return env, fabric


def counters(fabric):
    nics = [fabric.nic(node) for node in NODES]
    return (
        fabric.total_bytes,
        fabric.total_messages,
        [(nic.bytes_sent, nic.bytes_received, nic.messages_sent) for nic in nics],
    )


def snapshot(env, fabric):
    """The clock, the counters and every lane's holders and waiters."""
    lanes = [
        (lane.count, lane.queue_length)
        for node in NODES
        for lane in (fabric.nic(node).tx, fabric.nic(node).rx)
    ]
    return env.now, counters(fabric), lanes, len(env._heap)


def record_acquisitions(fabric):
    """Log every lane a transfer claims or requests."""
    acquired = []
    for node in NODES:
        nic = fabric.nic(node)
        record(nic.tx, acquired)
        record(nic.rx, acquired)
    return acquired


# -- done in place -------------------------------------------------------------


@pytest.mark.parametrize("factor", [1.0, 2.71])
def test_an_idle_transfer_takes_no_lane_and_moves_the_clock_by_its_wire(factor):
    env, fabric = build()
    fabric.set_degraded("b", factor)
    acquired = record_acquisitions(fabric)

    def mover():
        yield env.timeout(1.0)
        yield from fabric.transfer("a", "b", 4 * KiB)
        return env.now

    assert env.run(until=env.process(mover())) == (
        1.0 + fabric.transfer_time(4 * KiB) * factor
    )
    assert acquired == []
    assert counters(fabric) == (
        4 * KiB, 1, [(4 * KiB, 0, 1), (0, 4 * KiB, 0), (0, 0, 0), (0, 0, 0)]
    )


def test_an_idle_fanout_round_takes_no_lane_and_waits_for_its_slowest_path():
    env, fabric = build()
    fabric.set_degraded("c", 1.91)
    fabric.set_degraded("d", 1.37)
    acquired = record_acquisitions(fabric)

    def sender():
        yield from fabric.fanout("a", ["b", "c", "d"], 4 * KiB)
        return env.now

    assert env.run(until=env.process(sender())) == (
        fabric.transfer_time(4 * KiB) * 1.91
    )
    assert acquired == []
    assert counters(fabric) == (
        12 * KiB,
        1,
        [(12 * KiB, 0, 1), (0, 4 * KiB, 0), (0, 4 * KiB, 0), (0, 4 * KiB, 0)],
    )


def test_a_transfer_does_nothing_until_it_runs():
    """``transfer`` is lazy: a watchdog may start it later."""
    env, fabric = build()
    operation = fabric.transfer("a", "b", 4 * KiB)
    assert snapshot(env, fabric) == snapshot(*build())

    def mover():
        yield env.timeout(1.0)
        yield from call_with_timeout(env, operation, 1.0)
        return env.now

    assert env.run(until=env.process(mover())) == (
        1.0 + fabric.transfer_time(4 * KiB)
    )
    assert fabric.total_messages == 1


# -- refused with no side effect ----------------------------------------------


def hold(lane):
    lane.claim()


def queue_a_waiter(lane):
    # A capacity-1 lane queues only while its slot is held; the waiter
    # alone is set up by hand, so that the queue is all that refuses.
    lane._queue.append(Request(lane))


REFUSALS = {
    "tx held": lambda env, fabric: hold(fabric.nic("a").tx),
    "rx held": lambda env, fabric: hold(fabric.nic("b").rx),
    "held and queued": lambda env, fabric: (
        hold(fabric.nic("b").rx), fabric.nic("b").rx.request()
    ),
    "tx waiter": lambda env, fabric: queue_a_waiter(fabric.nic("a").tx),
    "rx waiter": lambda env, fabric: queue_a_waiter(fabric.nic("b").rx),
    "sender down": lambda env, fabric: fabric.set_node_down("a"),
    "receiver down": lambda env, fabric: fabric.set_node_down("b"),
    "link down": lambda env, fabric: fabric.set_link_down(
        "a", "b", symmetric=False
    ),
    "tie at now": lambda env, fabric: env.timeout(0),
    "tie at the landing": lambda env, fabric: env.timeout(
        fabric.transfer_time(4 * KiB)
    ),
}


def probe(prepare, dsts=("b",), core_concurrency=0, until=None):
    """At 1.0, ``prepare`` the fabric, then ask ``send_now`` for a
    4 KiB transfer from ``a`` to ``dsts``; returns its answer and the
    snapshots before and after it."""
    env, fabric = build(core_concurrency)
    seen = {}

    def prober():
        yield env.timeout(1.0)
        prepare(env, fabric)
        before = snapshot(env, fabric)
        seen["done"] = fabric.send_now("a", dsts, 4 * KiB)
        seen["states"] = before, snapshot(env, fabric)

    env.process(prober())
    env.run(until=until)
    return seen["done"], seen["states"]


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_send_now_refuses_with_no_side_effect(case):
    done, (before, after) = probe(REFUSALS[case])
    assert done is False
    assert before == after


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_one_busy_destination_refuses_a_whole_round(case):
    done, (before, after) = probe(REFUSALS[case], dsts=("c", "b", "d"))
    assert done is False
    assert before == after


def test_send_now_refuses_on_a_limited_core():
    done, (before, after) = probe(lambda env, fabric: None, core_concurrency=2)
    assert done is False
    assert before == after


def test_send_now_refuses_a_landing_beyond_run_until():
    wire = build()[1].transfer_time(4 * KiB)
    done, (before, after) = probe(lambda env, fabric: None, until=1.0 + wire / 2)
    assert done is False
    assert before == after


def test_send_now_goes_ahead_on_an_idle_fabric():
    """The probe itself is sharp: unprepared, the same ask is done."""
    done, (before, after) = probe(lambda env, fabric: None)
    assert done is True
    assert after[0] == before[0] + build()[1].transfer_time(4 * KiB)
    assert after[1] != before[1] and after[2:] == before[2:]


# -- the oracle: a seeded mixed run -------------------------------------------

#: ``run`` calls: drain, chunks, mixed.
RUNS = {
    "drain": [None],
    "chunks": [1e-6, 2.1e-6, 5e-6, 1e-5, 2e-5, 4e-5, None],
    "mixed": [3e-6, "p0", 1.5e-5, "p1", None],
}


def scripts_for(seed, movers=5, length=8):
    """Per mover, a list of sends, control sends, fan-outs, watchdog
    sends and sleeps."""
    rng = random.Random(seed)
    scripts = []
    for _ in range(movers):
        script = []
        for _ in range(rng.randint(2, length)):
            src = rng.choice(NODES)
            others = [node for node in NODES if node != src]
            kind = rng.choice(
                ("send", "send", "control", "fan", "watched", "sleep")
            )
            if kind == "sleep":
                script.append((kind, rng.choice((0.0, 1e-6, 4e-6, 9e-6, 2e-5))))
            elif kind == "fan":
                dsts = tuple(rng.sample(others, rng.randint(1, 3)))
                script.append((kind, src, dsts, 4 * KiB))
            else:
                nbytes = rng.choice((4 * KiB, 64 * KiB))
                script.append((kind, src, rng.choice(others), nbytes))
            # A gap (often none) after every step, so that some
            # transfers find their lanes free and some do not.
            script.append(("sleep", rng.choice((0.0, 3e-6, 8e-6, 2e-5))))
        scripts.append(script)
    return scripts


def observe(scripts, runs):
    """Run movers over one fabric while node ``d`` crashes for a while,
    the ``a``-``c`` link goes down and node ``b`` runs degraded; return
    the ``(run call, now, tag)`` log, per ``run`` call the clock after
    it and its outcome, and the counters at the end."""
    env, fabric = build()
    log = []
    run_call = [0]

    def note(tag):
        log.append((run_call[0], env.now, tag))

    def mover(index, script):
        for step, (kind, *args) in enumerate(script):
            tag = "m{}:{}:{}".format(index, step, kind)
            try:
                if kind == "sleep":
                    yield env.timeout(args[0])
                elif kind == "send":
                    yield from fabric.transfer(*args)
                elif kind == "control":
                    yield from fabric.control_send(*args)
                elif kind == "fan":
                    yield from fabric.fanout(*args)
                else:
                    yield from call_with_timeout(
                        env, fabric.transfer(*args), 8e-6, what=tag
                    )
            except NetworkError as error:
                note("{}:{}".format(tag, type(error).__name__))
            else:
                note(tag)

    def chaos():
        # Long windows, so that transfers on a down path or to the
        # degraded node can find their lanes free and their end next.
        fabric.set_degraded("b", 2.5)
        yield env.timeout(1e-5)
        fabric.set_link_down("a", "c")
        note("a-c-down")
        yield env.timeout(2e-5)
        fabric.set_node_down("d")
        note("d-down")
        yield env.timeout(1e-5)
        fabric.set_degraded("b")
        note("b-restored")
        yield env.timeout(1e-5)
        fabric.set_link_down("a", "c", down=False)
        note("a-c-up")
        yield env.timeout(3e-5)
        fabric.set_node_down("d", down=False)
        note("d-up")

    processes = [env.process(mover(i, s)) for i, s in enumerate(scripts)]
    env.process(chaos())
    clocks = []
    for run_call[0], until in enumerate(runs):
        if isinstance(until, str):
            until = processes[int(until[1:]) % len(processes)]
        try:
            outcome = env.run(until=until)
        except Exception as error:  # an outcome to compare, not a failure
            outcome = "raised {!r}".format(error)
        clocks.append((env.now, repr(outcome)))
    for node in NODES:
        for lane in (fabric.nic(node).tx, fabric.nic(node).rx):
            assert lane.count == lane.queue_length == 0
    return log, clocks, counters(fabric)


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(8))
def test_mixed_runs_match_the_reference(seed, runs):
    scripts = scripts_for(seed)
    new = observe(scripts, RUNS[runs])
    with reference_send():
        old = observe(scripts, RUNS[runs])
    assert new == old
    assert len(new[0]) > len(scripts)  # the movers did something


def test_mixed_runs_do_both():
    """Not vacuous: transfers are done in place, and some are refused
    with their lanes free and their paths up (by a tie or the run's
    end), so the lane path runs too."""
    tally = {"done": 0, "refused": 0, "refused free": 0}
    saved = Fabric.send_now

    def send_now(self, src, dsts, nbytes_each, base_latency=None):
        nics = self._nics
        lanes = [nics[src].tx] + [nics[dst].rx for dst in dsts]
        free = not any(lane.count or lane.queue_length for lane in lanes)
        free = free and all(self.is_reachable(src, dst) for dst in dsts)
        done = saved(self, src, dsts, nbytes_each, base_latency)
        tally["done" if done else "refused"] += 1
        tally["refused free"] += free and not done
        return done

    Fabric.send_now = send_now
    try:
        for seed in range(8):
            for runs in RUNS.values():
                observe(scripts_for(seed), runs)
    finally:
        Fabric.send_now = saved
    assert tally["done"] > 50
    assert tally["refused"] > 50
    assert tally["refused free"] > 10
