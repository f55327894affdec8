"""A transfer sent now: an idle transfer is arithmetic.

``Fabric._send`` books a transfer's lanes (``Fabric.reserve``) and then
waits once, in place with ``Environment.advance`` when its landing is
strictly the next thing due within the run's horizon (it is *sent
now*: the clock moves by the wait, no event is scheduled), or on a
timeout otherwise.  A transfer whose lanes are free waits exactly its
wire time.  The in-place wait is refused when something is due at or
before the landing: a transfer already in flight on a lane it shares
(or on every slot of a limited core), a transfer booked ahead of it on
such a lane, any other event tied with now or with its landing, or the
run's end.  A path down refuses the transfer outright, booking nothing.
Every refusal must be invisible: the reference refuses every in-place
wait (:func:`~tests.sim.conftest.reference_advance`), and a probe, or a
seeded mixed model, must log the same ``(run call, now, tag)``
sequence, leave the same clocks and end with the same lane clocks and
fabric and NIC counters under both.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric, NetworkError, call_with_timeout
from repro.sim import Environment
from repro.sim.engine import Environment as EngineEnvironment
from tests.sim.conftest import reference_advance

NODES = ("a", "b", "c", "d", "e", "f")


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


def lanes(fabric):
    """Every lane's busy-until clock, and the core's."""
    clocks = [
        (fabric.nic(node).tx_free_at, fabric.nic(node).rx_free_at)
        for node in NODES
    ]
    return clocks, list(fabric._core or ())


def snapshot(env, fabric):
    """The clock, the counters, every lane clock and the events due."""
    return env.now, counters(fabric), lanes(fabric), len(env._heap)


@contextmanager
def counted_sends():
    """Tally, in the ``Counter`` it yields, every booked transfer's wait
    inside the block: ``done`` in place, ``refused`` (a timeout), and of
    those refused, ``refused free`` with every lane free at submission.
    ``queued`` counts the bookings that begin after their submission.

    ``Fabric._send`` calls ``advance`` right after ``reserve``, with no
    wait between, so the first ``advance`` after a booking is its wait.
    """
    saved_reserve, saved_advance = Fabric.reserve, EngineEnvironment.advance
    tally = Counter()
    pending = {}

    def reserve(self, src, dsts, nbytes_each, base_latency=None):
        begin, delay = saved_reserve(self, src, dsts, nbytes_each, base_latency)
        free = begin == self.env.now
        if not free:
            tally["queued"] += 1
        pending[self.env] = free
        return begin, delay

    def advance(self, delay):
        moved = saved_advance(self, delay)
        if self in pending:
            free = pending.pop(self)
            tally["done" if moved else "refused"] += 1
            if free and not moved:
                tally["refused free"] += 1
        return moved

    Fabric.reserve = reserve
    EngineEnvironment.advance = advance
    try:
        yield tally
    finally:
        Fabric.reserve = saved_reserve
        EngineEnvironment.advance = saved_advance


# -- done in place -------------------------------------------------------------


@pytest.mark.parametrize("factor", [1.0, 2.71])
def test_an_idle_transfer_takes_no_lane_and_moves_the_clock_by_its_wire(factor):
    """No lane stays booked past the transfer's own landing, and it
    lands with no event."""
    env, fabric = build()
    fabric.set_degraded("b", factor)
    wire = fabric.transfer_time(4 * KiB) * factor
    seen = []

    def mover():
        yield env.timeout(1.0)
        yield from fabric.transfer("a", "b", 4 * KiB)
        seen.append(len(env._heap))
        return env.now

    with counted_sends() as sends:
        assert env.run(until=env.process(mover())) == 1.0 + wire
    assert seen == [0] and sends == Counter(done=1)
    assert fabric.nic("a").tx_free_at == fabric.nic("b").rx_free_at == 1.0 + wire
    assert counters(fabric) == (
        4 * KiB, 1,
        [(4 * KiB, 0, 1), (0, 4 * KiB, 0)] + [(0, 0, 0)] * 4,
    )


def test_an_idle_fanout_round_takes_no_lane_and_waits_for_its_slowest_path():
    env, fabric = build()
    fabric.set_degraded("c", 1.91)
    fabric.set_degraded("d", 1.37)
    end = fabric.transfer_time(4 * KiB) * 1.91

    def sender():
        yield from fabric.fanout("a", ["b", "c", "d"], 4 * KiB)
        return env.now

    with counted_sends() as sends:
        assert env.run(until=env.process(sender())) == end
    assert sends == Counter(done=1)
    assert [fabric.nic(node).rx_free_at for node in "bcd"] == [end] * 3
    assert counters(fabric) == (
        12 * KiB,
        1,
        [(12 * KiB, 0, 1)] + [(0, 4 * KiB, 0)] * 3 + [(0, 0, 0)] * 2,
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


# -- refused, invisibly --------------------------------------------------------


def transfer_at(env, fabric, when, src, dst):
    """A helper process: a 4 KiB ``src -> dst`` transfer submitted at
    ``when``."""

    def body():
        yield env.timeout(when)
        yield from fabric.transfer(src, dst, 4 * KiB)

    env.process(body())


def in_flight(src, dst, ahead=0.5):
    """A transfer on ``src``'s TX and ``dst``'s RX, submitted ``ahead``
    wire times before the probe and landing after it."""
    return lambda env, fabric, wire: transfer_at(
        env, fabric, 1.0 - ahead * wire, src, dst
    )


def both(*prepares):
    return lambda env, fabric, wire: [
        prepare(env, fabric, wire) for prepare in prepares
    ]


def down(method, *args, **kwargs):
    return lambda env, fabric, wire: getattr(fabric, method)(*args, **kwargs)


def sleeper(delay):
    def wait(env):
        yield env.timeout(delay)

    return wait


#: Set-ups, made before the run starts, under which the probe's
#: transfer from ``a`` to ``b`` at 1.0 cannot be sent now.  ``e`` and
#: ``f`` are nobody's destination in the probe.
REFUSALS = {
    # A transfer in flight on the sender's TX lane.
    "tx held": in_flight("a", "e"),
    # A transfer in flight on the receiver's RX lane.
    "rx held": in_flight("e", "b"),
    # In flight on ``b``'s RX lane, and another booked behind it.
    "held and queued": both(in_flight("e", "b"), in_flight("f", "b", 0.25)),
    # ``a``'s TX lane is free now but booked ahead: ``a -> e`` waits
    # for ``e``'s RX lane, which ``f -> e`` holds.
    "tx waiter": both(in_flight("f", "e", 0.75), in_flight("a", "e")),
    # ``b``'s RX lane is free now but booked ahead: ``e -> b`` waits
    # for ``e``'s TX lane, which ``e -> f`` holds.
    "rx waiter": both(in_flight("e", "f", 0.75), in_flight("e", "b")),
    "sender down": down("set_node_down", "a"),
    "receiver down": down("set_node_down", "b"),
    "link down": down("set_link_down", "a", "b", symmetric=False),
    # Another process wakes at 1.0, after the probe.
    "tie at now": lambda env, fabric, wire: env.process(sleeper(1.0)(env)),
    # An event due exactly when the probe's transfer would land.
    "tie at the landing": lambda env, fabric, wire: env.timeout(1.0 + wire),
}


def probe(prepare, dsts=("b",), core_concurrency=0, until=None):
    """At 1.0, send 4 KiB from ``a`` to ``dsts`` (a transfer for one,
    else a fan-out round) after ``prepare(env, fabric, wire)`` set the
    fabric up; returns whether it was sent now, the snapshots just
    before it and at the end of the run, and the probe's outcome."""
    env, fabric = build(core_concurrency)
    wire = fabric.transfer_time(4 * KiB)
    seen = {"sent now": None, "outcome": "running"}

    def prober():
        yield env.timeout(1.0)
        seen["before"] = snapshot(env, fabric)
        me = env.active_process
        saved = env.advance

        def advance(delay):
            moved = saved(delay)
            if env.active_process is me:
                seen["sent now"] = moved
            return moved

        env.advance = advance
        try:
            if len(dsts) == 1:
                yield from fabric.transfer("a", dsts[0], 4 * KiB)
            else:
                yield from fabric.fanout("a", dsts, 4 * KiB)
        except NetworkError as error:
            seen["outcome"] = type(error).__name__
            seen["refused"] = snapshot(env, fabric)
        else:
            seen["outcome"] = env.now
        finally:
            del env.advance

    env.process(prober())
    prepare(env, fabric, wire)
    env.run(until=until)
    return seen, snapshot(env, fabric)


def refused(prepare, **kwargs):
    """The probe under ``prepare``: it is not sent now, and the run is
    the same with every in-place wait refused."""
    seen, end = probe(prepare, **kwargs)
    with reference_advance():
        reference, reference_end = probe(prepare, **kwargs)
    # A path down refuses before the wait; anything else refuses it.
    assert seen["sent now"] is (None if "refused" in seen else False)
    assert (seen["outcome"], end) == (reference["outcome"], reference_end)
    if "refused" in seen:
        # A path down books nothing: the probe left no trace.
        assert seen["refused"] == seen["before"]
    return seen


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_send_now_refuses_with_no_side_effect(case):
    refused(REFUSALS[case])


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_one_busy_destination_refuses_a_whole_round(case):
    refused(REFUSALS[case], dsts=("c", "b", "d"))


def test_send_now_refuses_on_a_limited_core():
    """Both slots of a two-slot core carry transfers in flight, on lanes
    the probe does not use."""
    seen = refused(
        both(in_flight("e", "f"), in_flight("f", "e", 0.25)), core_concurrency=2
    )
    wire = build()[1].transfer_time(4 * KiB)
    assert seen["outcome"] == pytest.approx(1.0 + 1.5 * wire)


def test_send_now_refuses_a_landing_beyond_run_until():
    wire = build()[1].transfer_time(4 * KiB)
    seen = refused(lambda env, fabric, wire: None, until=1.0 + wire / 2)
    assert seen["outcome"] == "running"


def test_send_now_goes_ahead_on_an_idle_fabric():
    """The probe itself is sharp: unprepared, the same transfer is sent
    now, with no event."""
    seen, end = probe(lambda env, fabric, wire: None)
    before = seen["before"]
    assert seen["sent now"] is True
    assert end[0] == before[0] + build()[1].transfer_time(4 * KiB)
    assert end[1] != before[1] and end[3] == before[3] == 0


# -- the oracle: a seeded mixed run -------------------------------------------

#: ``run`` calls: drain, chunks, mixed.
RUNS = {
    "drain": [None],
    "chunks": [1e-6, 2.1e-6, 5e-6, 1e-5, 2e-5, 4e-5, None],
    "mixed": [3e-6, "p0", 1.5e-5, "p1", None],
}
#: The nodes the mixed model's movers use.
MOVERS = NODES[:4]


def scripts_for(seed, movers=5, length=8):
    """Per mover, a list of sends, control sends, fan-outs, watchdog
    sends and sleeps."""
    rng = random.Random(seed)
    scripts = []
    for _ in range(movers):
        script = []
        for _ in range(rng.randint(2, length)):
            src = rng.choice(MOVERS)
            others = [node for node in MOVERS if node != src]
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
    it and its outcome, and the lane clocks and counters at the end."""
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
    # Every run ends with a drain: no lane is booked past it.
    (nic_clocks, _core) = lanes(fabric)
    assert all(max(pair) <= env.now for pair in nic_clocks)
    return log, clocks, lanes(fabric), counters(fabric)


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(8))
def test_mixed_runs_match_the_reference(seed, runs):
    scripts = scripts_for(seed)
    new = observe(scripts, RUNS[runs])
    with reference_advance():
        old = observe(scripts, RUNS[runs])
    assert new == old
    assert len(new[0]) > len(scripts)  # the movers did something


def test_mixed_runs_do_both():
    """Not vacuous: transfers are sent now, some are refused with their
    lanes free and their paths up (by a tie or the run's end), so the
    timeout path runs too, and some queue behind a busy lane."""
    with counted_sends() as tally:
        for seed in range(8):
            for runs in RUNS.values():
                observe(scripts_for(seed), runs)
    assert tally["done"] > 50
    assert tally["refused"] > 50
    assert tally["refused free"] > 10
    assert tally["queued"] > 10
