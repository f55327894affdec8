"""The simulation environment: clock + event heap + run loop."""

import heapq
from itertools import count
from math import inf

from repro.sim.errors import SimulationError
from repro.sim.events import (  # noqa: F401  (priorities re-exported)
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.process import Process
from repro.trace.runtime import tracer_for_env


class EmptySchedule(SimulationError):
    """``run()`` was asked to advance but no events remain."""


class Environment:
    """Coordinates simulated time and event execution.

    The environment is the single mutable hub of a simulation: models
    create events through it, processes are registered on it, and
    :meth:`run` advances the clock by firing events in timestamp order.

    Determinism: two runs with the same model code and the same RNG
    seeds produce identical event orders — ties are broken by
    (priority, insertion sequence).
    """

    def __init__(self, initial_time=0.0):
        self.now = float(initial_time)
        self._heap = []
        self._seq = count()
        self.active_process = None
        #: While positive, the flat-path kernel must not run: some
        #: multi-step protocol (e.g. a staged page migration) is in an
        #: intermediate state that bulk execution is not allowed to
        #: overlap.  Managed via :meth:`hold_bulk` / :meth:`release_bulk`.
        self.bulk_holds = 0
        #: The run's tracer: the shared no-op :data:`~repro.trace.tracer.
        #: NULL_TRACER` unless a trace session is active.  Models guard
        #: hot paths with ``if env.tracer.enabled:`` so disabled runs
        #: pay one attribute read and one branch.
        self.tracer = tracer_for_env(self)
        #: Where the current :meth:`run` stops: no event later than
        #: this fires in it.  ``-inf`` outside ``run()`` and once a
        #: ``run(until=event)`` has seen its event fire.
        self._limit = -inf
        #: The latest timestamp a process may resume in place at (see
        #: :meth:`Process._resume <repro.sim.process.Process._resume>`):
        #: ``_limit``, or ``-inf`` while :meth:`step` still has other
        #: callbacks of the current event to run.
        self._horizon = -inf

    # -- event construction ------------------------------------------------

    def event(self, name=None):
        """Create a new pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that succeeds ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name=None):
        """Register ``generator`` as a new :class:`Process` starting now."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Condition event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events):
        """Condition event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- flat-path gating --------------------------------------------------

    def hold_bulk(self):
        """Forbid flat-path bulk execution until the matching release."""
        self.bulk_holds += 1

    def release_bulk(self):
        """Release one :meth:`hold_bulk` (pair them with try/finally)."""
        if self.bulk_holds <= 0:
            raise SimulationError("release_bulk without a matching hold")
        self.bulk_holds -= 1

    # -- scheduling --------------------------------------------------------

    def _push(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        """Put a triggered event on the heap, to fire after ``delay``."""
        heapq.heappush(
            self._heap, (self.now + delay, priority, next(self._seq), event)
        )

    def peek(self):
        """Timestamp of the next event, or ``float('inf')`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def advance(self, delay):
        """Move the clock ``delay`` ahead without an event, if nothing
        could observe the wait; False leaves the clock alone.

        For a process about to ``yield self.timeout(delay)``: when the
        landing time is within the run's horizon and *strictly*
        earlier than the heap head, that timeout would be the next
        event to fire, with this process as its only waiter (a strict
        compare wins every priority and sequence tie-break), so moving
        ``now`` is the identical float computation.  The sequence
        number the timeout would have drawn is not consumed, which
        shifts every later one equally and keeps relative order.  The
        horizon (``-inf`` outside :meth:`run` and for non-last
        callbacks in :meth:`step`) keeps ``run(until=...)`` exact.

        Callers fall back to the timeout on False; never use this for
        a timeout that is created but not yielded at once (a watchdog
        racing another event, say).
        """
        if delay < 0:
            return False  # the caller's timeout raises
        when = self.now + delay
        if when > self._horizon:
            return False
        heap = self._heap
        if heap and heap[0][0] <= when:
            return False
        self.now = when
        return True

    def step(self):
        """Fire the single next event; advances ``now`` to its timestamp.

        A process resumed here may go on to fire further events in
        place (see :meth:`Process._resume
        <repro.sim.process.Process._resume>`), but only inside
        :meth:`run` and only as the event's last callback: every
        earlier callback runs with the horizon at ``-inf``.
        """
        if not self._heap:
            raise EmptySchedule("no scheduled events")
        when, _priority, _seq, event = heapq.heappop(self._heap)
        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) == 1:
            callbacks[0](event)
            return
        if not callbacks:
            return
        self._horizon = -inf
        for callback in callbacks[:-1]:
            callback(event)
        self._horizon = self._limit
        callbacks[-1](event)

    def run(self, until=None):
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until
            the clock reaches that time; an :class:`Event` — run until
            that event fires, returning (or raising) its outcome.
        """
        if until is None:
            self._limit = self._horizon = inf
            try:
                while self._heap:
                    self.step()
            finally:
                self._limit = self._horizon = -inf
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self.now:
            raise ValueError(
                "until ({}) is in the past (now={})".format(deadline, self.now)
            )
        self._limit = self._horizon = deadline
        try:
            while self._heap and self.peek() <= deadline:
                self.step()
        finally:
            self._limit = self._horizon = -inf
        self.now = deadline
        return None

    def _stop(self, _event):
        """``run(until=event)``'s callback: the run ends with this step."""
        self._limit = self._horizon = -inf

    def _run_until_event(self, event):
        if event.callbacks is not None:
            event.callbacks.append(self._stop)
            self._limit = self._horizon = inf
        try:
            while event.callbacks is not None:
                if not self._heap:
                    raise EmptySchedule(
                        "event {!r} can never fire: schedule is empty".format(event)
                    )
                self.step()
        finally:
            self._limit = self._horizon = -inf
        if event._ok:
            return event._value
        # Mark as handled for Process events so defused errors do not
        # re-raise; then surface the failure to the caller.
        raise event._value
