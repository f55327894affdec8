"""Contention primitives: resources, containers and stores.

These model the queueing behaviour of shared devices (disks, NICs,
links, CPUs).  All waiting is FIFO unless a priority variant is used;
ties are deterministic.

Usage from a process::

    request = disk.request()
    yield request
    try:
        yield env.timeout(service_time)
    finally:
        disk.release(request)

or, equivalently, with the context-manager form::

    with disk.request() as request:
        yield request
        yield env.timeout(service_time)
"""

import heapq
from collections import deque
from itertools import count

from repro.sim.events import _PENDING, Event


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource):
        # What ``Event.__init__(resource.env)`` sets, without the call.
        self.env = resource.env
        self.name = None
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.resource = resource

    def _label(self):
        return "request:{}".format(self.resource.name)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False

    def cancel(self):
        """Withdraw a not-yet-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, env, capacity=1, name="resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.users = set()
        self._queue = deque()

    @property
    def count(self):
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_length(self):
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self):
        """Return a :class:`Request` event; it succeeds when a slot frees."""
        request = Request(self)
        if not self._queue and len(self.users) < self.capacity:
            # What queueing it and calling ``_grant`` would do.
            self.users.add(request)
            request.succeed()
        else:
            self._queue.append(request)
            self._grant()
        return request

    def release(self, request):
        """Return a granted slot, or withdraw a still-queued request.

        Withdrawing matters when a waiter is interrupted (e.g. by a
        timeout watchdog) before its request is granted: otherwise the
        slot would later be granted to nobody and never come back.
        Releasing twice is a silent no-op.
        """
        if request in self.users:
            self.users.remove(request)
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request):
        if request in self._queue and not request.triggered:
            self._queue.remove(request)

    def _grant(self):
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.popleft()
            self.users.add(request)
            request.succeed()


class PriorityRequest(Request):
    """A claim carrying a priority (lower value is served first)."""

    __slots__ = ("priority",)

    def __init__(self, resource, priority):
        super().__init__(resource)
        self.priority = priority


class PriorityResource(Resource):
    """A resource whose waiters are served in (priority, arrival) order."""

    def __init__(self, env, capacity=1, name="priority-resource"):
        super().__init__(env, capacity=capacity, name=name)
        self._heap = []
        self._seq = count()

    @property
    def queue_length(self):
        return len(self._heap)

    def request(self, priority=0):
        request = PriorityRequest(self, priority)
        if not self._heap and len(self.users) < self.capacity:
            # What queueing it and calling ``_grant`` would do.
            self.users.add(request)
            request.succeed()
        else:
            heapq.heappush(self._heap, (priority, next(self._seq), request))
            self._grant()
        return request

    def _cancel(self, request):
        self._heap = [entry for entry in self._heap if entry[2] is not request]
        heapq.heapify(self._heap)

    def _grant(self):
        while self._heap and len(self.users) < self.capacity:
            _priority, _seq, request = heapq.heappop(self._heap)
            self.users.add(request)
            request.succeed()


class StoreEvent(Event):
    """A put or get on a :class:`Store` or :class:`Container`, labelled
    ``"<op>:<owner name>"``."""

    __slots__ = ("owner",)
    op = None

    def __init__(self, owner):
        super().__init__(owner.env)
        self.owner = owner

    def _label(self):
        return "{}:{}".format(self.op, self.owner.name)


class Put(StoreEvent):
    __slots__ = ()
    op = "put"


class Get(StoreEvent):
    __slots__ = ()
    op = "get"


class Container:
    """A homogeneous quantity (e.g. bytes of free memory) with blocking put/get."""

    def __init__(self, env, capacity=float("inf"), init=0.0, name="container"):
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.level = init
        self._getters = deque()  # (amount, event)
        self._putters = deque()  # (amount, event)

    def put(self, amount):
        """Event that succeeds once ``amount`` fits under ``capacity``."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        event = Put(self)
        self._putters.append((amount, event))
        self._settle()
        return event

    def get(self, amount):
        """Event that succeeds once ``amount`` is available."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        event = Get(self)
        self._getters.append((amount, event))
        self._settle()
        return event

    def _settle(self):
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, event = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed(amount)
                    progressed = True
            if self._getters:
                amount, event = self._getters[0]
                if amount <= self.level:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed(amount)
                    progressed = True


class Store:
    """A FIFO buffer of arbitrary objects with blocking put/get."""

    def __init__(self, env, capacity=float("inf"), name="store"):
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items = deque()
        self._getters = deque()
        self._putters = deque()  # (item, event)

    def __len__(self):
        return len(self.items)

    def put(self, item):
        """Event that succeeds once there is room for ``item``."""
        event = Put(self)
        self._putters.append((item, event))
        self._settle()
        return event

    def get(self):
        """Event that succeeds with the oldest item once one exists."""
        event = Get(self)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self):
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self.items) < self.capacity:
                item, event = self._putters.popleft()
                self.items.append(item)
                event.succeed(item)
                progressed = True
            if self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progressed = True
