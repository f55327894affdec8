"""Events: the unit of synchronization in the simulation kernel.

An :class:`Event` starts *pending*, is *triggered* exactly once with
either a value (success) or an exception (failure), and then runs its
callbacks when the environment pops it off the event heap.  Processes
wait on events by yielding them; composite conditions (:class:`AllOf`,
:class:`AnyOf`) are themselves events.
"""

from heapq import heappush

from repro.sim.errors import EventAlreadyTriggered

_PENDING = object()

#: Scheduling priorities. Events pushed at the same timestamp fire in
#: priority order, then insertion order, which keeps runs deterministic.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.engine.Environment` the event belongs to.
    name:
        Optional label used in ``repr`` for debugging.

    Events are created once per simulated step, so the class is slotted
    and a subclass's default label is built by :meth:`_label` only when
    ``repr`` asks for it.
    """

    __slots__ = ("env", "name", "callbacks", "_value", "_ok")

    def __init__(self, env, name=None):
        self.env = env
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._ok = None

    def __repr__(self):
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return "<{} {}>".format(self._label(), state)

    def _label(self):
        return self.name or self.__class__.__name__

    @property
    def triggered(self):
        """True once the event has an outcome (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def ok(self):
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self):
        """The event outcome: its value on success, exception on failure."""
        if self._value is _PENDING:
            raise AttributeError("event has not been triggered")
        return self._value

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``.

        Returns the event so calls can be chained/yielded directly.
        """
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.env._push(self)
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``.

        A process waiting on the event will have the exception thrown
        into it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = False
        self._value = exception
        self.env._push(self)
        return self

    def trigger(self, event):
        """Trigger this event with the outcome of another event."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)
        return self


class Timeout(Event):
    """An event that succeeds after a relative simulated ``delay``."""

    __slots__ = ("delay",)

    def __init__(self, env, delay, value=None, name=None):
        if delay < 0:
            raise ValueError("negative delay: {!r}".format(delay))
        self.env = env
        self.name = name
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        # The entry ``env._push(self, delay=delay)`` would make.
        heappush(env._heap, (env.now + delay, PRIORITY_NORMAL, next(env._seq), self))

    def _label(self):
        return self.name or "Timeout({})".format(self.delay)


class ConditionValue(dict):
    """Outcome of a condition: maps each triggered sub-event to its value."""


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    def __init__(self, env, events, name=None):
        super().__init__(env, name=name)
        self.events = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise ValueError("event from a different environment")
        self._remaining = len(self.events)
        for event in self.events:
            if event.callbacks is None:
                # Already fired (callbacks consumed): account for it now.
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)
        if not self.triggered and self._satisfied():
            self._resolve()

    def _on_child(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._satisfied():
            self._resolve()

    def _satisfied(self):
        raise NotImplementedError

    def _resolve(self):
        value = ConditionValue()
        for event in self.events:
            if event.callbacks is None and event._ok:
                value[event] = event._value
        self.succeed(value)


class AllOf(_Condition):
    """Succeeds when *all* sub-events succeed; fails fast on any failure."""

    def _satisfied(self):
        return self._remaining == 0


class AnyOf(_Condition):
    """Succeeds as soon as *any* sub-event succeeds (or fails on a failure)."""

    def _satisfied(self):
        return self._remaining < len(self.events) or not self.events
