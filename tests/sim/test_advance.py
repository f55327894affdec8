"""``Environment.advance`` must be invisible: same observations, same clocks.

``advance(delay)`` moves the clock without an event when the timeout it
replaces would be the strict next event within the run's horizon.  The
reference is an ``advance`` that never advances, so every wait is a real
timeout.  Every model here runs under both and must log the same
``(run call, now, tag)`` sequence and leave the same ``env.now`` after
every ``run`` call.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from tests.sim.conftest import (
    COUNT_ACTIONS,
    DELAY_ACTIONS,
    DELAYS,
    GROUP_ACTIONS,
    RUNS,
    AdvanceModel,
    counted_advance,
    observe,
    random_scripts,
    reference_advance,
)


def both(scripts, runs):
    with counted_advance() as moved:
        new = observe(scripts, runs, AdvanceModel)
    with reference_advance():
        old = observe(scripts, runs, AdvanceModel)
    return new, old, sum(moved)


@pytest.mark.parametrize("runs", sorted(RUNS))
@pytest.mark.parametrize("seed", range(12))
def test_seeded_models_match_the_reference(seed, runs):
    scripts = random_scripts(seed)
    (log, clocks), (ref_log, ref_clocks), _moved = both(scripts, RUNS[runs])
    assert log == ref_log
    assert clocks == ref_clocks
    assert len(log) > len(scripts)  # the model did something


def test_seeded_models_do_advance():
    """The oracle is not vacuous: the models take the event-free path."""
    moved = sum(
        both(random_scripts(seed), RUNS[runs])[2]
        for seed in range(12)
        for runs in RUNS
    )
    assert moved > 20


def single(action, argument, processes=3, repeat=4):
    """Scripts where every process repeats one action."""
    return [[(action, argument)] * repeat for _ in range(processes)]


@pytest.mark.parametrize(
    "scripts",
    [
        pytest.param(single("timeout", 0.0), id="zero-timeouts"),
        pytest.param(single("timeout", 0.5), id="equal-time-timeouts"),
        pytest.param(
            [[("timeout", 0.25)] * 6, [("timeout", 0.5)] * 3], id="staggered",
        ),
        pytest.param(single("lane", 0.0), id="contended-resource"),
        pytest.param(single("prio", 1), id="contended-priority-resource"),
        pytest.param(single("allof", (0.0, 0.5, 0.5)), id="all-of"),
        pytest.param(single("anyof", (1.0, 0.25)), id="any-of"),
        pytest.param(
            [[("allof", (0.25,)), ("timeout", 0.25)] * 3] * 2,
            id="all-of-then-sleep",
        ),
        pytest.param(single("interrupt", 0.25, processes=4), id="interrupts"),
        pytest.param(
            [[("shared", 0.0), ("timeout", 0.0)] * 3] * 3, id="many-waiters",
        ),
        pytest.param(
            [[("shared", 0.0), ("timeout", 0.25)] * 3] * 3,
            id="many-waiters-then-sleep",
        ),
        pytest.param(single("spawn", 0.25), id="child-processes"),
    ],
)
@pytest.mark.parametrize("runs", sorted(RUNS))
def test_each_primitive_matches_the_reference(scripts, runs):
    (log, clocks), (ref_log, ref_clocks), _moved = both(scripts, RUNS[runs])
    assert log == ref_log
    assert clocks == ref_clocks


# -- the rules that make it exact --------------------------------------------


def test_advance_is_refused_outside_run():
    env = Environment()
    assert env.advance(1.0) is False
    assert env.now == 0.0


def test_advance_is_refused_on_a_tie_with_the_heap_head():
    env = Environment()
    results = []

    def sleeper():
        results.append(env.advance(1.0))  # ties the other timeout
        results.append(env.advance(0.5))  # strictly earlier
        results.append(env.now)
        yield env.timeout(0)

    env.timeout(1.0)
    env.process(sleeper())
    env.run()
    assert results == [False, True, 0.5]


def test_advance_is_refused_for_a_negative_delay():
    env = Environment()
    results = []

    def sleeper():
        results.append(env.advance(-1.0))
        yield env.timeout(0)

    env.process(sleeper())
    env.run()
    assert results == [False] and env.now == 0.0


def test_advance_does_not_consume_a_sequence_number():
    env = Environment()

    def sleeper():
        assert env.advance(1.0)
        yield env.timeout(0)

    env.process(sleeper())
    env.run()
    reference = Environment()

    def reference_sleeper():
        yield reference.timeout(1.0)
        yield reference.timeout(0)

    reference.process(reference_sleeper())
    reference.run()
    assert next(env._seq) == next(reference._seq) - 1


def test_advance_never_runs_the_clock_past_run_until():
    """A process that waits 10 s inside ``run(until=5)`` must not see
    ``now == 11``; ``run`` would then rewind the clock to 5 and the
    process's next event would fire at 12 — time running backwards."""
    env = Environment()
    seen = []

    def sleeper():
        yield env.timeout(1.0)
        if not env.advance(10.0):
            yield env.timeout(10.0)
        seen.append(env.now)
        yield env.timeout(1.0)
        seen.append(env.now)

    env.process(sleeper())
    env.run(until=5.0)
    assert env.now == 5.0
    assert seen == []
    env.run()
    assert seen == [11.0, 12.0]


def test_advance_is_refused_to_a_waiter_that_is_not_the_last_callback():
    """Waiters resumed earlier in a dispatch must not run ahead of the
    ones resumed after them."""
    env = Environment()
    gate = env.event()
    log = []

    def waiter(name, delay):
        yield gate
        moved = env.advance(delay)
        log.append((name, moved, env.now))
        if not moved:
            yield env.timeout(delay)
        log.append((name, "after", env.now))

    def opener():
        yield env.timeout(1.0)
        gate.succeed()
        yield env.timeout(5.0)

    env.process(waiter("a", 1.0))
    env.process(waiter("b", 0.5))
    env.process(opener())
    env.run()
    assert log == [
        ("a", False, 1.0), ("b", True, 1.5), ("b", "after", 1.5),
        ("a", "after", 2.0),
    ]


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
def test_random_schedules_match_the_reference(scripts, runs):
    (log, clocks), (ref_log, ref_clocks), _moved = both(scripts, runs)
    assert log == ref_log
    assert clocks == ref_clocks
