"""Resume-in-place must be invisible: same fire order, same clocks.

``Process._resume`` fires the event a process yields itself when that
event is the heap head, has no other waiter and lies within the run's
horizon.  Every model here runs twice, once with the reference dispatch
from ``conftest.py`` (resume is always a callback fired by ``step``),
and must log the same ``(now, label)`` sequence, each entry in the same
``run`` call, and leave the same ``env.now`` after every call.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.engine import EmptySchedule
from tests.sim.conftest import (
    ACTIONS,
    COUNT_ACTIONS,
    DELAY_ACTIONS,
    DELAYS,
    GROUP_ACTIONS,
    StepCounter,
    observe,
    random_scripts,
    reference_dispatch,
)

#: ``run`` call sequences: drain, fixed chunks, until a process, mixed.
RUNS = {
    "drain": [None],
    "chunks": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.5, None],
    "until-process": ["p0", "p1", None],
    "mixed": [0.5, "p2", 1.0, "p3", 2.5, None],
}


def both(scripts, runs):
    new = observe(scripts, runs)
    with reference_dispatch():
        old = observe(scripts, runs)
    return new, old


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(12))
def test_seeded_models_match_the_reference_dispatch(seed, runs):
    scripts = random_scripts(seed)
    (log, clocks), (ref_log, ref_clocks) = both(scripts, RUNS[runs])
    assert log == ref_log
    assert clocks == ref_clocks
    assert len(log) > len(scripts)  # the model did something


def test_every_action_is_exercised_by_the_seeded_models():
    used = {
        action
        for seed in range(12)
        for script in random_scripts(seed)
        for action, _argument in script
    }
    assert used == set(ACTIONS)


def single(action, argument, processes=3, repeat=4):
    """Scripts where every process repeats one action."""
    return [[(action, argument)] * repeat for _ in range(processes)]


@pytest.mark.parametrize(
    "scripts",
    [
        pytest.param(single("timeout", 0.0), id="zero-timeouts"),
        pytest.param(single("timeout", 0.5), id="equal-time-timeouts"),
        pytest.param(single("lane", 0.0), id="contended-resource"),
        pytest.param(single("prio", 1), id="contended-priority-resource"),
        pytest.param(
            [[("put", 0.0)] * 4, [("get", 0.0)] * 4, [("put", 0.0)] * 2],
            id="store",
        ),
        pytest.param(
            [[("cput", 3)] * 3, [("cget", 2)] * 4, [("cget", 3)] * 2],
            id="container",
        ),
        pytest.param(single("allof", (0.0, 0.5, 0.5)), id="all-of"),
        pytest.param(single("anyof", (1.0, 0.25)), id="any-of"),
        pytest.param(single("fail", 0.25), id="failed-events"),
        pytest.param(single("interrupt", 0.25, processes=4), id="interrupts"),
        pytest.param(
            [[("shared", 0.0), ("timeout", 0.0)] * 3] * 3, id="many-waiters",
        ),
        pytest.param(
            [[("timeout", 0.5), ("stale", 0.0)] * 3] * 3, id="replayed-events",
        ),
        pytest.param(single("spawn", 0.25), id="child-processes"),
    ],
)
@pytest.mark.parametrize("runs", sorted(RUNS))
def test_each_primitive_matches_the_reference_dispatch(scripts, runs):
    (log, clocks), (ref_log, ref_clocks) = both(scripts, RUNS[runs])
    assert log == ref_log
    assert clocks == ref_clocks


# -- the rules that make it exact --------------------------------------------


def test_a_chain_of_own_timeouts_runs_in_one_dispatch():
    env = Environment()
    seen = []

    def sleeper():
        for _ in range(100):
            yield env.timeout(0.5)
            seen.append(env.now)

    env.process(sleeper())
    steps = StepCounter(env)
    env.run()
    assert seen == [0.5 * (i + 1) for i in range(100)]
    # The start event and the process's own completion; every timeout
    # fired in place.
    assert steps.count == 2


def test_bare_step_fires_exactly_one_event():
    env = Environment()
    seen = []

    def sleeper():
        for _ in range(3):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(sleeper())
    env.step()  # start: runs to the first yield, fires nothing else
    assert (env.now, seen, len(env._heap)) == (0.0, [], 1)
    for expected in ([1.0], [1.0, 2.0], [1.0, 2.0, 3.0]):
        env.step()
        assert seen == expected and env.now == expected[-1]
    assert len(env._heap) == 1  # the process's completion
    env.step()
    assert not env._heap


def test_a_resumed_waiter_does_not_run_ahead_of_the_next_waiter():
    """Only an event's last callback may resume in place: an earlier
    waiter's next event must wait until every waiter has been resumed."""
    env = Environment()
    gate = env.event()
    log = []

    def waiter(name):
        yield gate
        log.append((name, "woke", env.now))
        yield env.timeout(0)
        log.append((name, "after", env.now))

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.process(_succeed_later(env, gate, 1.0))
    env.run()
    assert log == [
        ("a", "woke", 1.0), ("b", "woke", 1.0),
        ("a", "after", 1.0), ("b", "after", 1.0),
    ]


def _succeed_later(env, event, delay):
    yield env.timeout(delay)
    event.succeed()
    yield env.timeout(5.0)  # stay alive: no completion event at ``delay``


def test_run_until_time_stops_in_place_resumes_at_the_deadline():
    env = Environment()
    seen = []

    def sleeper():
        for _ in range(10):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(sleeper())
    env.run(until=2.5)
    assert seen == [1.0, 2.0] and env.now == 2.5
    env.run(until=3.0)  # an event exactly at the deadline fires
    assert seen == [1.0, 2.0, 3.0] and env.now == 3.0
    assert env._heap[0][0] == 4.0


def test_run_until_event_returns_when_it_fires_even_if_a_waiter_follows():
    """``run(until=event)``'s stop callback is not the last one when a
    process starts waiting on the event after ``run`` was called."""
    env = Environment()
    seen = []
    done = env.event()

    def late_waiter():
        yield env.timeout(0.5)
        yield done
        for _ in range(3):
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(late_waiter())
    env.process(_succeed_later(env, done, 1.0))
    assert env.run(until=done) is None
    assert env.now == 1.0 and seen == []
    env.run()
    assert seen == [2.0, 3.0, 4.0]


def test_run_until_event_that_never_fires_raises_at_the_same_clock():
    def model():
        env = Environment()

        def sleeper():
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(sleeper())
        with pytest.raises(EmptySchedule):
            env.run(until=env.event())
        return env.now

    with reference_dispatch():
        expected = model()
    assert model() == expected == 5.0


def test_a_failed_event_at_the_heap_head_is_thrown_in_place():
    env = Environment()
    caught = []

    def victim():
        event = env.event()
        event.fail(KeyError("gone"))
        try:
            yield event
        except KeyError as error:
            caught.append((env.now, error.args))
        yield env.timeout(1.0)
        caught.append(env.now)

    env.process(victim())
    steps = StepCounter(env)
    env.run()
    assert caught == [(0.0, ("gone",)), 1.0]
    assert steps.count == 2  # start and completion


# -- random schedules ------------------------------------------------------

delay = st.sampled_from(DELAYS)
steps = st.one_of(
    st.tuples(st.sampled_from(DELAY_ACTIONS), delay),
    st.tuples(st.sampled_from(COUNT_ACTIONS), st.integers(0, 3)),
    st.tuples(
        st.sampled_from(GROUP_ACTIONS),
        st.lists(delay, max_size=3).map(tuple),
    ),
)

run_calls = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from(["p0", "p1", "p2"]),
        st.floats(0.0, 4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=5,
)


@given(
    st.lists(st.lists(steps, min_size=1, max_size=8), min_size=1, max_size=5),
    run_calls,
)
@settings(max_examples=80, deadline=None)
def test_random_schedules_match_the_reference_dispatch(scripts, runs):
    # A ``run(until=t)`` in the past raises; both dispatches must agree
    # on that outcome too.
    (log, clocks), (ref_log, ref_clocks) = both(scripts, runs)
    assert log == ref_log
    assert clocks == ref_clocks
