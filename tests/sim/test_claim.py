"""``Resource.claim`` must be invisible: a free slot taken with no event.

``claim()`` grants a free slot in place exactly when the request it
replaces would be granted at once and popped in place by
``Process._resume``: no waiter is queued, a slot is free and
``env.advance(0)`` holds.  The reference refuses every claim and
every advance (:func:`reference_claim` and
:func:`~tests.sim.conftest.reference_advance`), so every wait is a
real event; every model here must log the same ``(run call, now,
tag)`` sequence under both.  Refusing ``advance`` alone refuses every
claim too, so any run with ``advance`` patched to refuse is also a run
without claims.
"""

import random
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.hw.latency import KiB
from repro.net import Fabric, NetworkError, call_with_timeout
from repro.sim import Environment, PriorityResource, Resource
from repro.sim.resources import Request
from tests.sim.conftest import (
    RUNS,
    AdvanceModel,
    observe,
    random_scripts,
    reference_advance,
)


@pytest.fixture(params=["fifo", "priority"])
def resource(request):
    env = Environment()
    kind = Resource if request.param == "fifo" else PriorityResource
    return kind(env, capacity=2, name="lane")


def run_in_process(env, body):
    """Run generator function ``body`` as a process; return its value."""
    return env.run(until=env.process(body()))


# -- when a claim is granted, and when it is refused -------------------------


def test_claim_grants_a_free_slot_already_fired(resource):
    env = resource.env

    def body():
        request = resource.claim()
        assert isinstance(request, Request)
        assert request in resource.users and resource.count == 1
        assert request.triggered and request.ok and request.value is None
        assert request.callbacks is None  # fired: yielding it would replay
        resource.release(request)
        assert resource.count == 0
        yield env.timeout(0)
        return env.now

    assert run_in_process(env, body) == 0.0


def test_claim_is_refused_outside_run(resource):
    assert resource.claim() is None
    assert resource.count == 0


def test_claim_is_refused_when_every_slot_is_held(resource):
    env = resource.env
    seen = []

    def body():
        held = [resource.claim(), resource.claim()]
        assert None not in held
        seen.append(resource.claim())
        for request in held:
            resource.release(request)
        seen.append(resource.claim() is not None)
        yield env.timeout(0)

    run_in_process(env, body)
    assert seen == [None, True]


def test_claim_is_refused_while_a_waiter_is_queued(resource):
    """Queued waiters (the FIFO deque or the priority heap) are served
    first; a claim never jumps them."""
    env = resource.env
    seen = []

    def body():
        held = [resource.request(), resource.request()]
        yield env.all_of(held)
        waiter = resource.request()
        assert resource.queue_length == 1
        seen.append(resource.claim())
        resource.release(held[0])  # the waiter takes this slot
        assert resource.queue_length == 0 and waiter in resource.users
        seen.append(resource.claim())
        resource.release(held[1])
        yield env.timeout(0)  # after the waiter's grant fires
        seen.append(resource.claim() is not None)

    run_in_process(env, body)
    assert seen == [None, None, True]


def test_claim_is_refused_on_a_tie_with_the_heap_head(resource):
    env = resource.env
    seen = []

    def body():
        env.timeout(0)  # a granted request would queue behind this
        seen.append(resource.claim())
        yield env.timeout(0)
        seen.append(resource.claim() is not None)

    run_in_process(env, body)
    assert seen == [None, True]


def test_claim_does_not_consume_a_sequence_number():
    env, reference = Environment(), Environment()
    lane, ref_lane = Resource(env), Resource(reference)

    def claimer():
        lane.release(lane.claim())
        yield env.timeout(0)

    def requester():
        request = ref_lane.request()
        yield request
        ref_lane.release(request)
        yield reference.timeout(0)

    run_in_process(env, claimer)
    run_in_process(reference, requester)
    assert next(env._seq) == next(reference._seq) - 1


def test_a_claimed_slot_passes_to_the_waiters_in_fifo_order():
    env = Environment()
    lane = Resource(env, capacity=1, name="lane")
    log = []

    def holder():
        yield env.timeout(0.125)  # past the other processes' starts
        request = lane.claim()
        assert request is not None
        with request:
            yield env.timeout(0.875)
        log.append(("holder-released", env.now))

    def waiter(tag, delay):
        yield env.timeout(delay)
        assert lane.claim() is None
        request = lane.request()
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
    """The shared model, claiming its lanes where it can.

    A claimed hold logs the same tag a granted request does, so the
    two runs compare on clocks and order alone.
    """

    def hold(self, name, resource, *priority):
        request = resource.claim()
        if request is None:
            return (yield from super().hold(name, resource, *priority))
        try:
            self.last_fired[name] = request
            self.note("{}:{!r}:None".format(name, request))
            return (yield from self.sleep(name, 0.25))
        finally:
            resource.release(request)


@contextmanager
def counted_claims():
    """Count the claims ``Resource.claim`` granted and refused inside
    the block, in the ``Counter`` it yields."""
    saved = Resource.claim
    tally = Counter()

    def claim(resource):
        request = saved(resource)
        tally["refused" if request is None else "granted"] += 1
        return request

    Resource.claim = claim
    try:
        yield tally
    finally:
        Resource.claim = saved


@contextmanager
def reference_claim():
    """``Resource.claim`` that always asks for the request."""
    saved = Resource.claim
    Resource.claim = lambda resource: None
    try:
        yield
    finally:
        Resource.claim = saved


def both(observe_model):
    with counted_claims() as claims:
        new = observe_model()
    with reference_claim(), reference_advance():
        old = observe_model()
    return new, old, claims["granted"]


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(8))
def test_seeded_models_match_the_reference(seed, runs):
    scripts = random_scripts(seed)
    new, old, _claims = both(lambda: observe(scripts, RUNS[runs], ClaimModel))
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
        new, old, claims = both(lambda: observe(scripts, runs, ClaimModel))
        assert new == old
        assert claims > 0


def test_seeded_models_do_claim():
    """The oracle is not vacuous: the models take the event-free path."""
    granted = sum(
        both(lambda: observe(random_scripts(seed), RUNS[runs], ClaimModel))[2]
        for seed in range(8)
        for runs in RUNS
    )
    assert granted >= 10


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
    return their ``(run call, now, tag)`` log and, per ``run`` call, the
    clock after it and its outcome."""
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
    lanes = [fabric.nic(node).tx for node in NODES]
    lanes += [fabric.nic(node).rx for node in NODES]
    assert all(lane.count == 0 for lane in lanes)
    return log, clocks


@pytest.mark.parametrize("core_concurrency", [0, 1, 2])
@pytest.mark.parametrize("runs", sorted(FABRIC_RUNS))
@pytest.mark.parametrize("seed", range(6))
def test_crossing_transfers_match_the_reference(seed, runs, core_concurrency):
    scripts = fabric_scripts(seed)
    new, old, _claims = both(
        lambda: observe_fabric(scripts, FABRIC_RUNS[runs], core_concurrency)
    )
    assert new == old
    assert len(new[0]) > len(scripts)  # the movers did something


def test_crossing_transfers_do_claim_and_contend():
    """Not vacuous: lanes are claimed, some claims are refused (the
    transfer waits on a request), and some watchdogs fire."""
    granted = refused = timeouts = 0
    for seed in range(6):
        with counted_claims() as claims:
            log, _clocks = observe_fabric(fabric_scripts(seed), [None], 1)
        granted += claims["granted"]
        refused += claims["refused"]
        timeouts += sum(tag.endswith("OpTimeout") for _run, _now, tag in log)
    assert granted >= 10
    assert refused > 0
    assert timeouts > 0


def test_refusing_advance_refuses_every_claim():
    with counted_claims() as claims, reference_advance():
        observe_fabric(fabric_scripts(0), [None], 0)
    assert claims["granted"] == 0 and claims["refused"] > 0
