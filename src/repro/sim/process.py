"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator yields
must be an :class:`~repro.sim.events.Event`; the process sleeps until
the event fires and is resumed with the event's value (or has the
event's exception thrown into it).  A process is itself an event that
triggers when the generator returns, so processes can wait on each
other simply by yielding them.
"""

from heapq import heappop

from repro.sim.errors import Interrupt, StopProcess
from repro.sim.events import PRIORITY_URGENT, Event


class Initialize(Event):
    """The already-successful event that starts a process at ``now``."""

    __slots__ = ("process",)

    def __init__(self, env, process):
        super().__init__(env)
        self.process = process
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._push(self, priority=PRIORITY_URGENT)

    def _label(self):
        return "init:{}".format(self.process.name)


class Interruption(Event):
    """The failed event that throws an :class:`~repro.sim.errors.Interrupt`
    into ``process`` at ``now``."""

    __slots__ = ("process",)

    def __init__(self, process, cause):
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self.callbacks.append(process._resume)
        process.env._push(self, priority=PRIORITY_URGENT)

    def _label(self):
        return "interrupt:{}".format(self.process.name)


class Process(Event):
    """A running simulation process (also an event: fires on completion)."""

    def __init__(self, env, generator, name=None):
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() expects a generator, got {!r}".format(generator)
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target = None
        # Kick the generator off via an already-successful init event so
        # the first body statement runs at the current simulated time.
        Initialize(env, self)

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        The process may catch the interrupt and keep running (e.g. to
        handle a failure notice and retry).  Interrupting a finished
        process raises ``RuntimeError``.
        """
        if self.triggered:
            raise RuntimeError("cannot interrupt finished process {!r}".format(self))
        # Detach from whatever the process is currently waiting on so it
        # is not resumed twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        Interruption(self, cause)

    # -- internal ----------------------------------------------------------

    def _resume(self, event):
        """Send ``event``'s outcome into the generator, then wait on
        what it yields.

        Resume in place: when the yielded event is the heap head, has
        no other waiter and is not later than the run's horizon
        (``env._horizon``), it is exactly the event :meth:`Environment.
        step <repro.sim.engine.Environment.step>` would fire next, with
        this resume as its only callback, at the same clock value.  So
        this loop pops it, marks it fired and resumes the generator
        with it directly, instead of hooking a callback and returning
        to ``step()``.  No sequence number is consumed, so event order
        and every timestamp are unchanged.
        """
        env = self.env
        heap = env._heap
        generator = self._generator
        env.active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        target = generator.send(event._value)
                    else:
                        target = generator.throw(event._value)
                except (StopIteration, StopProcess) as exc:
                    self.succeed(exc.value)
                    return
                except BaseException as exc:
                    # An escaped interrupt or error fails the process.
                    self.fail(exc)
                    if not self.callbacks:
                        # Nobody is waiting on this process; crash
                        # loudly rather than losing the error.
                        raise
                    return
                if not isinstance(target, Event):
                    error = RuntimeError(
                        "process {!r} yielded a non-event: {!r}".format(
                            self.name, target
                        )
                    )
                    self.fail(error)
                    raise error
                callbacks = target.callbacks
                if callbacks is None:
                    # The event already fired; resume at the current
                    # timestamp with the same outcome via a proxy event.
                    proxy = Event(env, name="replay")
                    proxy._ok = target._ok
                    proxy._value = target._value
                    proxy.callbacks.append(self._resume)
                    env._push(proxy, priority=PRIORITY_URGENT)
                    self._target = proxy
                    return
                if (
                    not callbacks
                    and heap
                    and heap[0][3] is target
                    and heap[0][0] <= env._horizon
                ):
                    env.now = heappop(heap)[0]
                    target.callbacks = None
                    event = target
                    continue
                # Pending, or triggered but not next: hook its callback
                # chain directly.
                callbacks.append(self._resume)
                self._target = target
                return
        finally:
            env.active_process = None
