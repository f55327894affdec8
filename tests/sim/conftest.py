"""Reference dispatch for the resume-in-place oracle tests.

``Process._resume`` resumes a process in place when the event it
yields is the heap head with no other waiter.  :func:`reference_resume`
is the dispatch that never does: every yielded event gets the resume
appended as a callback and is fired later by ``Environment.step``.
:func:`reference_dispatch` swaps it in, so a test can run one model
under both and compare what they observe.

:class:`Model` is a multi-process model over every kernel primitive,
driven by per-process scripts (:func:`random_scripts` draws seeded
ones), and :func:`observe` runs it and returns its fire log and the
clock after every ``run`` call.  Its plain waits go through
:meth:`Model.sleep` and its slot holds through :meth:`Model.hold`;
:class:`AdvanceModel` sleeps through ``Environment.advance``, and is
checked against :func:`reference_advance`, which refuses every
advance.
"""

import random
from contextlib import contextmanager

from repro.sim import Environment, Interrupt, Process
from repro.sim.engine import Environment as EngineEnvironment
from repro.sim.events import PRIORITY_URGENT, Event
from repro.sim.errors import StopProcess
from repro.sim.resources import Container, PriorityResource, Resource, Store


def reference_resume(self, event):
    """``Process._resume`` without resume-in-place."""
    self.env.active_process = self
    try:
        if event._ok:
            target = self._generator.send(event._value)
        else:
            target = self._generator.throw(event._value)
    except StopIteration as exc:
        self.succeed(exc.value)
        return
    except StopProcess as exc:
        self.succeed(exc.value)
        return
    except Interrupt as exc:
        self.fail(exc)
        if not self.callbacks:
            raise
        return
    except BaseException as exc:
        self.fail(exc)
        if not self.callbacks:
            raise
        return
    finally:
        self.env.active_process = None

    if not isinstance(target, Event):
        error = RuntimeError(
            "process {!r} yielded a non-event: {!r}".format(self.name, target)
        )
        self.fail(error)
        raise error
    if target.callbacks is not None:
        target.callbacks.append(self._resume)
        self._target = target
    else:
        proxy = Event(self.env, name="replay")
        proxy._ok = target._ok
        proxy._value = target._value
        proxy.callbacks.append(self._resume)
        self.env._push(proxy, priority=PRIORITY_URGENT)
        self._target = proxy


@contextmanager
def reference_dispatch():
    """Dispatch with :func:`reference_resume` inside the block.

    Build and run the model inside it: a process looks its resume
    method up each time it starts waiting."""
    saved = Process._resume
    Process._resume = reference_resume
    try:
        yield
    finally:
        Process._resume = saved


@contextmanager
def reference_advance():
    """``Environment.advance`` that always asks for the timeout."""
    saved = EngineEnvironment.advance
    EngineEnvironment.advance = lambda self, delay: False
    try:
        yield
    finally:
        EngineEnvironment.advance = saved


@contextmanager
def counted_advance():
    """Count the calls to ``Environment.advance`` that moved the clock."""
    saved = EngineEnvironment.advance
    moved = []

    def advance(self, delay):
        result = saved(self, delay)
        moved.append(result)
        return result

    EngineEnvironment.advance = advance
    try:
        yield moved
    finally:
        EngineEnvironment.advance = saved


class StepCounter:
    """Counts ``env.step`` calls (heap dispatches) on one environment."""

    def __init__(self, env):
        self.count = 0
        step = env.step

        def counted():
            self.count += 1
            step()

        env.step = counted


# -- a seeded model over every kernel primitive -------------------------

#: Delays drawn from a small set, so many events tie on timestamp.
DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0)
#: Script actions by argument: a delay, a small count (a priority or
#: an amount), or a tuple of up to three delays.
DELAY_ACTIONS = (
    "timeout", "timeout", "lane", "put", "get", "fail", "interrupt",
    "shared", "stale", "spawn",
)
COUNT_ACTIONS = ("prio", "cput", "cget")
GROUP_ACTIONS = ("allof", "anyof")
ACTIONS = DELAY_ACTIONS + COUNT_ACTIONS + GROUP_ACTIONS


#: ``run`` call sequences: drain, fixed chunks, until a process, mixed.
RUNS = {
    "drain": [None],
    "chunks": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.5, None],
    "until-process": ["p0", "p1", None],
    "mixed": [0.5, "p2", 1.0, "p3", 2.5, None],
}


def random_script(rng, length):
    """A list of ``(action, argument)`` steps for one process."""
    script = []
    for _ in range(length):
        action = rng.choice(ACTIONS)
        if action in GROUP_ACTIONS:
            argument = tuple(rng.choice(DELAYS) for _ in range(rng.randint(0, 3)))
        elif action in COUNT_ACTIONS:
            argument = rng.randint(0, 3)
        else:
            argument = rng.choice(DELAYS)
        script.append((action, argument))
    return script


def random_scripts(seed, processes=5, length=12):
    rng = random.Random(seed)
    return [
        random_script(rng, rng.randint(1, length)) for _ in range(processes)
    ]


class Model:
    """Processes running scripts against shared resources, logging
    ``(run call, now, label)`` every time one of them observes
    something.  ``run_call`` is set by whoever drives the model."""

    def __init__(self, env, scripts):
        self.env = env
        self.log = []
        self.run_call = 0
        self.lane = Resource(env, capacity=1, name="lane")
        self.cpu = PriorityResource(env, capacity=2, name="cpu")
        self.store = Store(env, capacity=2, name="box")
        self.tank = Container(env, capacity=4, init=2, name="tank")
        self.shared = env.event(name="shared")
        self.last_fired = {}
        self.processes = []
        for index, script in enumerate(scripts):
            self.processes.append(
                env.process(self.body(index, script), name="p{}".format(index))
            )
        env.process(self.broadcaster(), name="broadcaster")

    def note(self, label):
        self.log.append((self.run_call, self.env.now, label))

    def broadcaster(self):
        """Fires the shared event (many waiters) a few times."""
        for round_ in range(4):
            yield self.env.timeout(0.5)
            shared, self.shared = self.shared, self.env.event(name="shared")
            shared.succeed(round_)
            self.note("broadcast:{}".format(round_))

    def failer(self, event, delay):
        yield self.env.timeout(delay)
        event.fail(ValueError("failed at {}".format(self.env.now)))

    def child(self, name, delay):
        yield self.env.timeout(delay)
        self.note("{}:child-done".format(name))
        return delay

    def wait(self, name, event):
        """Yield ``event``, logging its outcome or an interrupt."""
        try:
            value = yield event
        except Interrupt as interrupt:
            self.note("{}:interrupted:{}".format(name, interrupt.cause))
            return False
        except ValueError as error:
            self.note("{}:caught:{}:{!r}".format(name, error, event))
            return False
        self.last_fired[name] = event
        self.note("{}:{!r}:{!r}".format(name, event, _plain(value)))
        return True

    def sleep(self, name, delay, value=None):
        """Wait ``delay``; a subclass may wait without a timeout."""
        return (yield from self.wait(name, self.env.timeout(delay, value)))

    def hold(self, name, resource, *priority):
        """Hold a slot of ``resource`` for 0.25."""
        request = resource.request(*priority)
        try:
            if (yield from self.wait(name, request)):
                yield from self.sleep(name, 0.25)
        finally:
            resource.release(request)

    def body(self, index, script):
        name = "p{}".format(index)
        env = self.env
        for step, (action, argument) in enumerate(script):
            if action == "timeout":
                yield from self.sleep(name, argument, step)
            elif action == "lane":
                yield from self.hold(name, self.lane)
            elif action == "prio":
                yield from self.hold(name, self.cpu, argument)
            elif action == "put":
                yield from self.wait(name, self.store.put((name, step)))
            elif action == "get":
                yield from self.wait(name, self.store.get())
            elif action == "cput":
                yield from self.wait(name, self.tank.put(argument))
            elif action == "cget":
                yield from self.wait(name, self.tank.get(argument))
            elif action in GROUP_ACTIONS:
                events = [env.timeout(delay, value=delay) for delay in argument]
                combine = env.all_of if action == "allof" else env.any_of
                yield from self.wait(name, combine(events))
            elif action == "fail":
                event = env.event(name="doomed")
                env.process(self.failer(event, argument))
                yield from self.wait(name, event)
            elif action == "interrupt":
                victim = self.processes[(index + 1) % len(self.processes)]
                if victim.is_alive and victim is not env.active_process:
                    victim.interrupt("by {} at step {}".format(name, step))
                    self.note("{}:interrupts:{}".format(name, victim.name))
                yield from self.sleep(name, argument)
            elif action == "shared":
                yield from self.wait(name, self.shared)
            elif action == "stale":
                # An event that already fired: resumed via a replay proxy.
                fired = self.last_fired.get(name)
                if fired is not None and fired.callbacks is None:
                    yield from self.wait(name, fired)
                else:
                    yield from self.sleep(name, argument)
            elif action == "spawn":
                child = env.process(self.child(name, argument))
                yield from self.wait(name, child)
        self.note("{}:done".format(name))
        return index


class AdvanceModel(Model):
    """The shared model, sleeping through ``advance`` where it can.

    Every sleep logs the same tag whichever way it waited, so the two
    runs compare on clocks and order alone.
    """

    def sleep(self, name, delay, value=None):
        env = self.env
        if not env.advance(delay):
            try:
                yield env.timeout(delay)
            except Interrupt as interrupt:
                self.note("{}:interrupted:{}".format(name, interrupt.cause))
                return False
        self.note("{}:slept:{!r}:{!r}".format(name, delay, value))
        return True


def _plain(value):
    """A log-friendly form of an event value (condition values are dicts
    keyed by events)."""
    if isinstance(value, dict):
        return sorted((repr(key), _plain(item)) for key, item in value.items())
    return value


def observe(scripts, runs, model_class=Model):
    """Run a model built from ``scripts`` through ``runs``, a list of
    ``until`` arguments (a number, ``None``, or ``"pN"`` for process
    ``N``); returns the fire log and, per call, the clock after it and
    its outcome (or the error it raised)."""
    env = Environment()
    model = model_class(env, scripts)
    clocks = []
    for model.run_call, until in enumerate(runs):
        if isinstance(until, str):
            until = model.processes[int(until[1:]) % len(model.processes)]
        try:
            outcome = env.run(until=until)
        except Exception as error:  # an outcome to compare, not a failure
            outcome = "raised {!r}".format(error)
        clocks.append((env.now, repr(outcome)))
    return model.log, clocks
