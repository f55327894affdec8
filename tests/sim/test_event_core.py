"""Pins the event core's observable semantics: labels, errors, timing.

These hold however events are stored (slots, lazily built labels,
direct heap pushes), so a cheaper event representation must keep them.
"""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    Timeout,
)
from repro.sim.engine import PRIORITY_NORMAL, PRIORITY_URGENT, EmptySchedule
from repro.sim.errors import EventAlreadyTriggered
from repro.sim.process import Process
from repro.sim.resources import (
    Container,
    PriorityRequest,
    PriorityResource,
    Request,
    Store,
)


# -- labels --------------------------------------------------------------


def test_timeout_repr_reads_its_delay():
    env = Environment()
    assert repr(env.timeout(0.5)) == "<Timeout(0.5) ok>"
    assert repr(env.timeout(0)) == "<Timeout(0) ok>"
    assert repr(env.timeout(1e-06, value="x")) == "<Timeout(1e-06) ok>"


def test_named_timeout_repr_uses_its_name():
    env = Environment()
    assert repr(Timeout(env, 2.0, name="deadline")) == "<deadline ok>"


def test_request_repr_names_its_resource():
    env = Environment()
    lane = Resource(env, capacity=1, name="nic-tx:node0")
    granted = lane.request()
    waiting = lane.request()
    assert repr(granted) == "<request:nic-tx:node0 ok>"
    assert repr(waiting) == "<request:nic-tx:node0 pending>"
    lane.release(granted)
    assert repr(waiting) == "<request:nic-tx:node0 ok>"


def test_priority_request_repr_names_its_resource():
    env = Environment()
    cpu = PriorityResource(env, capacity=1, name="cpu")
    cpu.request(priority=1)
    assert repr(cpu.request(priority=0)) == "<request:cpu pending>"


def test_process_init_event_repr():
    env = Environment()

    def worker():
        yield env.timeout(1.0)

    process = env.process(worker())
    [(when, priority, _seq, init)] = env._heap
    assert (when, priority) == (0.0, PRIORITY_URGENT)
    assert repr(init) == "<init:worker ok>"
    assert repr(process) == "<worker pending>"
    env.run()
    assert repr(process) == "<worker ok>"


def test_store_and_container_event_reprs_name_their_owner():
    env = Environment()
    store = Store(env, capacity=1, name="inbox:node0")
    assert repr(store.put("a")) == "<put:inbox:node0 ok>"
    assert repr(store.put("b")) == "<put:inbox:node0 pending>"
    assert repr(store.get()) == "<get:inbox:node0 ok>"
    tank = Container(env, capacity=4, init=0, name="tank")
    assert repr(tank.get(3)) == "<get:tank pending>"
    assert repr(tank.put(4)) == "<put:tank ok>"
    assert repr(Store(env).get()) == "<get:store pending>"
    assert repr(Container(env).put(1)) == "<put:container ok>"


def test_interrupt_event_repr_names_the_process():
    env = Environment()

    def worker():
        try:
            yield env.timeout(5.0)
        except Interrupt:
            pass

    process = env.process(worker(), name="worker")
    env.run(until=1.0)
    process.interrupt("stop")
    [(when, priority, _seq, poke)] = [
        entry for entry in env._heap if entry[0] == 1.0
    ]
    assert (when, priority) == (1.0, PRIORITY_URGENT)
    assert repr(poke) == "<interrupt:worker failed>"
    assert isinstance(poke.value, Interrupt) and poke.value.cause == "stop"


def test_plain_event_repr_states():
    env = Environment()
    assert repr(env.event()) == "<Event pending>"
    failed = env.event(name="probe")
    failed.fail(RuntimeError("x"))
    assert repr(failed) == "<probe failed>"


# -- scheduling ----------------------------------------------------------


def test_timeout_heap_entry_shape():
    env = Environment()
    env.run(until=1.0)
    first = env.timeout(0.25, value="a")
    second = env.timeout(0.25, value="b")
    (t1, p1, s1, e1), (t2, p2, s2, e2) = sorted(env._heap)
    assert (t1, p1, e1) == (1.25, PRIORITY_NORMAL, first)
    assert (t2, p2, e2) == (1.25, PRIORITY_NORMAL, second)
    assert s2 == s1 + 1
    assert first.delay == 0.25 and first.value == "a"


def test_timeouts_and_succeeds_share_one_sequence():
    env = Environment()
    order = []
    late = env.event()
    env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
    late.callbacks.append(lambda e: order.append("succeed"))
    late.succeed()
    env.timeout(0).callbacks.append(lambda e: order.append("timeout2"))
    env.run()
    assert order == ["timeout", "succeed", "timeout2"]


def test_negative_timeout_raises_before_scheduling():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)
    assert env._heap == []


def test_second_succeed_or_fail_raises():
    env = Environment()
    for first in ("succeed", "fail"):
        for second in ("succeed", "fail"):
            event = env.event()
            trigger(event, first)
            with pytest.raises(EventAlreadyTriggered):
                trigger(event, second)
    with pytest.raises(EventAlreadyTriggered):
        env.timeout(1.0).succeed()


def trigger(event, how):
    if how == "succeed":
        event.succeed()
    else:
        event.fail(RuntimeError("x"))


def test_run_until_time_fires_events_at_exactly_that_time():
    env = Environment()
    fired = []
    for delay in (1.0, 2.0, 2.0, 3.0):
        env.timeout(delay, value=delay).callbacks.append(
            lambda e: fired.append(e.value)
        )
    env.run(until=2.0)
    assert fired == [1.0, 2.0, 2.0]
    assert env.now == 2.0
    with pytest.raises(ValueError):
        env.run(until=1.5)
    env.run()
    assert fired == [1.0, 2.0, 2.0, 3.0]


def test_run_until_unreachable_event_drains_then_raises_empty_schedule():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(EmptySchedule):
        env.run(until=env.event())
    assert env.now == 1.0


def test_waited_process_yielding_a_non_event_fails_its_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        yield "not an event"

    def waiter():
        with pytest.raises(RuntimeError, match="non-event"):
            yield env.process(bad())
        return env.now

    with pytest.raises(RuntimeError, match="non-event"):
        env.run(until=env.process(waiter()))


# -- slotted events and their subclasses ---------------------------------


def test_events_accept_no_ad_hoc_attributes():
    env = Environment()
    store = Store(env)
    lane = Resource(env)
    events = [
        env.event(), env.timeout(1.0), lane.request(),
        PriorityResource(env).request(priority=1), store.put(1), store.get(),
    ]
    for event in events:
        with pytest.raises(AttributeError):
            event.tag = "x"


def test_subclasses_with_their_own_attributes_still_work():
    env = Environment()
    lane = Resource(env, name="lane")
    cpu = PriorityResource(env, name="cpu")
    results = {}

    def worker():
        request = lane.request()
        assert isinstance(request, Request) and request.resource is lane
        yield request
        urgent = cpu.request(priority=3)
        assert isinstance(urgent, PriorityRequest) and urgent.priority == 3
        yield urgent
        both = env.all_of([env.timeout(1.0, "a"), env.timeout(2.0, "b")])
        either = env.any_of([env.timeout(5.0, "slow"), env.timeout(0.5, "fast")])
        assert isinstance(both, AllOf) and isinstance(either, AnyOf)
        results["all"] = sorted((yield both).values())
        results["any"] = list((yield either).values())
        cpu.release(urgent)
        lane.release(request)
        return "done"

    process = env.process(worker())
    assert isinstance(process, Process) and isinstance(process, Event)
    assert env.run(until=process) == "done"
    assert results == {"all": ["a", "b"], "any": ["fast"]}
    assert env.now == 2.0


def test_store_and_container_events_keep_fifo_order():
    env = Environment()
    store = Store(env, capacity=1)
    tank = Container(env, capacity=10, init=0)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))
        got.append((yield tank.get(7)))

    env.process(consumer())
    for item in ("a", "b", "c"):
        store.put(item)
    tank.put(4)
    tank.put(4)
    env.run()
    assert got == ["a", "b", "c", 7]
    assert tank.level == 1 and len(store) == 0
