"""A free slot claimed with no event dispatch.

A lane or device slot is claimed by its request: a request for a free
slot of a :class:`~repro.sim.resources.Resource` is granted at once,
its grant is pushed at ``(now, NORMAL, seq)``, and when that entry is
the heap head within the run's horizon, ``Process._resume`` pops it in
place, so the holder goes on with no dispatch by ``Environment.step``.
Here that is a *claim*; a request that queues, or whose grant is left
for ``step`` to fire, is a refused claim.  NIC lanes are busy-until
clocks, not resources: a transfer claims its lanes by booking them
(``Fabric.reserve``) and waits in place with ``Environment.advance``
where it can.

The references refuse every in-place resume and every advance
(:func:`~tests.sim.conftest.reference_dispatch` and
:func:`~tests.sim.conftest.reference_advance`), so every grant and
every wait is a real event; every model here must log the same ``(run
call, now, tag)`` sequence under both.
"""

import random
from contextlib import contextmanager

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric, NetworkError, call_with_timeout
from repro.sim import Environment, PriorityResource, Resource
from repro.sim.resources import Request
from tests.net.test_send_now import counted_sends
from tests.sim.conftest import (
    RUNS,
    AdvanceModel,
    StepCounter,
    observe,
    random_scripts,
    reference_advance,
    reference_dispatch,
)


@pytest.fixture(params=["fifo", "priority"])
def resource(request):
    env = Environment()
    kind = Resource if request.param == "fifo" else PriorityResource
    return kind(env, capacity=2, name="lane")


def run_in_process(env, body):
    """Run generator function ``body`` as a process; return its value."""
    return env.run(until=env.process(body()))


def claim(resource, steps):
    """Generator: request a slot of ``resource`` and wait for it; returns
    the request and whether it was claimed (resumed with no step)."""
    before = steps.count
    request = resource.request()
    yield request
    return request, steps.count == before


# -- when a claim is granted, and when it is refused -------------------------


def test_claim_grants_a_free_slot_already_fired(resource):
    env = resource.env
    steps = StepCounter(env)

    def body():
        request = resource.request()
        assert isinstance(request, Request)
        assert request in resource.users and resource.count == 1
        assert request.triggered and request.ok and request.value is None
        before = steps.count
        yield request
        assert steps.count == before  # popped in place: no dispatch
        assert request.callbacks is None  # fired
        resource.release(request)
        assert resource.count == 0
        yield env.timeout(0)
        return env.now

    assert run_in_process(env, body) == 0.0


def test_claim_is_refused_outside_run(resource):
    """Outside ``run`` the grant is an event left for ``step`` to fire."""
    env = resource.env
    steps = StepCounter(env)
    request = resource.request()
    assert request.triggered and request.callbacks is not None
    assert env.peek() == 0.0 and not env.advance(0)
    env.run()
    assert steps.count == 1 and request.callbacks is None
    resource.release(request)
    assert resource.count == 0


def test_claim_is_refused_when_every_slot_is_held(resource):
    env = resource.env
    steps = StepCounter(env)
    seen = []

    def body():
        held = []
        for _ in range(2):
            request, claimed = yield from claim(resource, steps)
            held.append(request)
            seen.append(claimed)
        third = resource.request()
        seen.append(third.triggered)
        for request in held:
            resource.release(request)
        seen.append(third in resource.users)
        resource.release(third)
        yield env.timeout(0)

    run_in_process(env, body)
    assert seen == [True, True, False, True]


def test_claim_is_refused_while_a_waiter_is_queued(resource):
    """Queued waiters (the FIFO deque or the priority heap) are served
    first; a request never jumps them."""
    env = resource.env
    seen = []

    def body():
        held = [resource.request(), resource.request()]
        yield env.all_of(held)
        waiter = resource.request()
        assert resource.queue_length == 1
        late = resource.request()
        seen.append(late.triggered)
        resource.release(held[0])  # the waiter takes this slot
        assert resource.queue_length == 1 and waiter in resource.users
        seen.append(late.triggered)
        resource.release(held[1])
        seen.append(late in resource.users)
        for request in (waiter, late):
            resource.release(request)
        yield env.timeout(0)

    run_in_process(env, body)
    assert seen == [False, False, True]


def test_claim_is_refused_on_a_tie_with_the_heap_head(resource):
    env = resource.env
    steps = StepCounter(env)
    seen = []

    def body():
        env.timeout(0)  # the grant queues behind this
        request, claimed = yield from claim(resource, steps)
        seen.append(claimed)
        resource.release(request)
        request, claimed = yield from claim(resource, steps)
        seen.append(claimed)
        resource.release(request)

    run_in_process(env, body)
    assert seen == [False, True]


def test_claim_does_not_consume_a_sequence_number():
    """Resumed in place or dispatched by ``step``, a granted request
    draws the same sequence numbers."""

    def draws():
        env = Environment()
        lane = Resource(env)
        steps = StepCounter(env)
        claimed = []

        def claimer():
            request, in_place = yield from claim(lane, steps)
            claimed.append(in_place)
            lane.release(request)
            yield env.timeout(0)

        run_in_process(env, claimer)
        return next(env._seq), claimed

    seq, claimed = draws()
    with reference_dispatch():
        reference_seq, reference_claimed = draws()
    assert claimed == [True] and reference_claimed == [False]
    assert seq == reference_seq


def test_a_claimed_slot_passes_to_the_waiters_in_fifo_order():
    env = Environment()
    lane = Resource(env, capacity=1, name="lane")
    steps = StepCounter(env)
    log = []

    def holder():
        yield env.timeout(0.125)  # past the other processes' starts
        request, claimed = yield from claim(lane, steps)
        assert claimed
        with request:
            yield env.timeout(0.875)
        log.append(("holder-released", env.now))

    def waiter(tag, delay):
        yield env.timeout(delay)
        request = lane.request()
        assert not request.triggered
        yield request
        log.append((tag, env.now))
        yield env.timeout(0.5)
        lane.release(request)

    env.process(holder())
    for tag, delay in (("first", 0.25), ("second", 0.375), ("third", 0.5)):
        env.process(waiter(tag, delay))
    env.run()
    assert log == [
        ("holder-released", 1.0), ("first", 1.0), ("second", 1.5),
        ("third", 2.0),
    ]
    assert lane.count == 0


# -- the oracle: the shared seeded model -------------------------------------


class ClaimModel(AdvanceModel):
    """The shared model, sleeping through ``advance``.  It counts in
    :attr:`claimed` the holds that every model built since the count
    was reset claimed (granted and resumed with no dispatch).  A hold
    logs the same tag either way, so the two runs compare on clocks
    and order alone."""

    claimed = 0

    def __init__(self, env, scripts):
        self.steps = StepCounter(env)
        super().__init__(env, scripts)

    def hold(self, name, resource, *priority):
        before = self.steps.count
        request = resource.request(*priority)
        try:
            if (yield from self.wait(name, request)):
                if self.steps.count == before:
                    ClaimModel.claimed += 1
                yield from self.sleep(name, 0.25)
        finally:
            resource.release(request)


def both(scripts, runs):
    """The model's observation with every shortcut and under both
    references, and how many holds the first claimed."""
    ClaimModel.claimed = 0
    new = observe(scripts, runs, ClaimModel)
    claimed = ClaimModel.claimed
    with reference_dispatch(), reference_advance():
        old = observe(scripts, runs, ClaimModel)
    return new, old, claimed


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(8))
def test_seeded_models_match_the_reference(seed, runs):
    scripts = random_scripts(seed)
    new, old, _claimed = both(scripts, RUNS[runs])
    assert new == old


@pytest.mark.parametrize("action", ["lane", "prio"])
def test_contended_lanes_match_the_reference(action):
    # Staggered starts, so some holds find the lane free with nothing
    # else due at that instant, and others find it held.
    scripts = [
        [("timeout", 0.0625 * (index + 1))] + [(action, 1), ("timeout", 0.125)] * 4
        for index in range(3)
    ]
    for runs in RUNS.values():
        new, old, claimed = both(scripts, runs)
        assert new == old
        assert claimed > 0


def test_seeded_models_do_claim():
    """The oracle is not vacuous: the models take the event-free path."""
    claimed = sum(
        both(random_scripts(seed), RUNS[runs])[2]
        for seed in range(8)
        for runs in RUNS
    )
    assert claimed >= 10


# -- the oracle: crossing fabric transfers ------------------------------------

NODES = ("a", "b", "c", "d")
#: ``run`` calls for the fabric model: drain, chunks, mixed.
FABRIC_RUNS = {
    "drain": [None],
    "chunks": [1e-6, 2.1e-6, 5e-6, 1e-5, 2e-5, 4e-5, None],
    "mixed": [3e-6, "p0", 1.5e-5, "p1", None],
}


def fabric_scripts(seed, movers=5, length=6):
    """Per mover, a list of sends, fan-outs, watchdog sends and sleeps."""
    rng = random.Random(seed)
    scripts = []
    for _ in range(movers):
        script = []
        for _ in range(rng.randint(1, length)):
            src = rng.choice(NODES)
            others = [node for node in NODES if node != src]
            kind = rng.choice(("send", "send", "fan", "watched", "sleep"))
            if kind == "sleep":
                script.append((kind, rng.choice((0.0, 1e-6, 4e-6))))
            elif kind == "fan":
                script.append((kind, src, tuple(rng.sample(others, 2)), 4 * KiB))
            else:
                nbytes = rng.choice((4 * KiB, 64 * KiB))
                script.append((kind, src, rng.choice(others), nbytes))
        scripts.append(script)
    return scripts


def observe_fabric(scripts, runs, core_concurrency):
    """Run movers over one fabric (node ``d`` crashes for a while) and
    return their ``(run call, now, tag)`` log, per ``run`` call the
    clock after it and its outcome, and the lane clocks at the end."""
    env = Environment()
    fabric = Fabric(env, core_concurrency=core_concurrency)
    for node in NODES:
        fabric.add_node(node)
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
        yield env.timeout(6e-6)
        fabric.set_node_down("d")
        note("d-down")
        yield env.timeout(1e-5)
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
    lanes = [(fabric.nic(node).tx_free_at, fabric.nic(node).rx_free_at)
             for node in NODES]
    assert all(max(pair) <= env.now for pair in lanes)
    return log, clocks, lanes, list(fabric._core or ())


@contextmanager
def references():
    with reference_dispatch(), reference_advance():
        yield


@pytest.mark.parametrize("core_concurrency", [0, 1, 2])
@pytest.mark.parametrize("runs", sorted(FABRIC_RUNS))
@pytest.mark.parametrize("seed", range(6))
def test_crossing_transfers_match_the_reference(seed, runs, core_concurrency):
    scripts = fabric_scripts(seed)
    new = observe_fabric(scripts, FABRIC_RUNS[runs], core_concurrency)
    with references():
        old = observe_fabric(scripts, FABRIC_RUNS[runs], core_concurrency)
    assert new == old
    assert len(new[0]) > len(scripts)  # the movers did something


def test_crossing_transfers_do_claim_and_contend():
    """Not vacuous: transfers book free lanes, some are booked behind a
    busy lane, some land in place and some watchdogs fire."""
    timeouts = 0
    with counted_sends() as sends:
        for core_concurrency in (0, 1, 2):
            for seed in range(6):
                log, _clocks, _lanes, _core = observe_fabric(
                    fabric_scripts(seed), [None], core_concurrency
                )
                timeouts += sum(
                    tag.endswith("OpTimeout") for _run, _now, tag in log
                )
    booked = sends["done"] + sends["refused"]
    assert booked - sends["queued"] >= 10
    assert sends["queued"] > 0 and sends["done"] > 0
    assert timeouts > 0


def test_refusing_advance_refuses_every_claim():
    """With ``advance`` refused, every transfer waits on a timeout."""
    with reference_advance(), counted_sends() as sends:
        observe_fabric(fabric_scripts(0), [None], 0)
    assert sends["done"] == 0 and sends["refused"] > 0
