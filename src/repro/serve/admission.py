"""Admission control: shed load at the door instead of queueing it.

An open-loop server under overload has exactly one honest choice:
refuse work.  The driver's queues are unbounded, so without admission
control a collapsed cell queues for (simulated) hours and every class
misses its SLO — the paper's overload discussion, reproduced.  An
:class:`AdmissionPolicy` sits at the arrival drain: every request is
offered to the policy the moment the server first observes it, and a
refused request is *shed* — it never touches the backend, acquires no
service spans, and is billed separately from SLO violations (see
:class:`~repro.serve.accountant.ClassAccount`).

Determinism: policies decide from arrival timestamps, queue depths and
the server's lateness at the drain moment — all pure functions of the
seeded run — so enabling a policy keeps reruns and serial==parallel
reports byte-identical.

The built-in policies cover the classic design space:

* :class:`NoShed` — the baseline: admit everything, queue unboundedly;
* :class:`StaticCaps` — per-class token buckets over *arrival* time
  (provisioned admission: each class bought a fixed request rate);
* :class:`QueueDepthShed` — bound each class's queue; arrivals beyond
  the bound are shed (bounded-buffer drop-tail);
* :class:`UtilizationFeedback` — a hysteresis controller on the
  server's lateness (how far behind arrival time the drain runs) that
  sheds whole classes in strict reverse-priority order: bestEffort
  first, then silver, and never gold at the default ``max_level``.
"""

from repro.serve.qos import QOS_CLASSES

__all__ = [
    "AdmissionPolicy",
    "NoShed",
    "StaticCaps",
    "QueueDepthShed",
    "UtilizationFeedback",
    "make_admission_policy",
]


class AdmissionPolicy:
    """Contract: one admit/shed verdict per arriving request.

    A policy instance carries mutable controller state; the driver
    calls :meth:`reset` once per run, then :meth:`admit` exactly once
    per offered request, in merged arrival order (ties broken by class
    index — the :class:`~repro.serve.arrivals.ArrivalSchedule` order).
    """

    name = "abstract"

    def reset(self, mix):
        """Start a fresh run over ``mix`` (a list of TenantClassSpecs)."""

    def admit(self, index, spec, arrival_s, lag_s, depth):
        """True to enqueue the request, False to shed it.

        ``index``/``spec`` name the tenant class, ``arrival_s`` is the
        request's arrival timestamp (relative to the serving epoch),
        ``lag_s`` the server's scheduling lag at this moment — how
        long the *oldest* admitted-but-unserved request has been
        waiting (0 when every queue is empty: the backlog signal) —
        and ``depth`` the class's current queue depth.
        """
        raise NotImplementedError

    def to_json(self):
        return {"policy": self.name}


class NoShed(AdmissionPolicy):
    """The baseline: admit everything (the pre-admission driver)."""

    name = "none"

    def admit(self, index, spec, arrival_s, lag_s, depth):
        return True


class StaticCaps(AdmissionPolicy):
    """Per-class admitted-rate caps: a token bucket per class.

    ``caps`` maps class names (QoS names) to the maximum admitted rate
    in requests per second; unmapped classes (and ``None`` caps) are
    unlimited.  Buckets refill in *arrival* time — the cap is a
    property of the offered schedule, not of how fast the server
    happens to drain it — and hold at most ``burst_s`` seconds of
    tokens, so a class can burst briefly above its cap but not ride a
    long silence into one.
    """

    name = "static-caps"

    def __init__(self, caps, burst_s=0.1):
        if burst_s <= 0:
            raise ValueError("burst_s must be positive")
        self.caps = dict(caps)
        self.burst_s = burst_s
        self._tokens = {}
        self._last = {}

    def reset(self, mix):
        self._tokens = {}
        self._last = {}
        for index, spec in enumerate(mix):
            cap = self.caps.get(spec.qos.name)
            if cap is not None and cap < 0:
                raise ValueError("caps must be non-negative")
            if cap is not None:
                self._tokens[index] = max(1.0, cap * self.burst_s)
                self._last[index] = 0.0

    def admit(self, index, spec, arrival_s, lag_s, depth):
        cap = self.caps.get(spec.qos.name)
        if cap is None:
            return True
        tokens = self._tokens[index]
        tokens = min(
            max(1.0, cap * self.burst_s),
            tokens + (arrival_s - self._last[index]) * cap,
        )
        self._last[index] = arrival_s
        if tokens >= 1.0:
            self._tokens[index] = tokens - 1.0
            return True
        self._tokens[index] = tokens
        return False

    def to_json(self):
        return {
            "policy": self.name,
            "caps": {name: self.caps[name] for name in sorted(self.caps)},
            "burst_s": self.burst_s,
        }


class QueueDepthShed(AdmissionPolicy):
    """Bounded queues: shed arrivals of a class whose queue is full.

    ``limits`` maps class names to the maximum pending depth; unmapped
    classes (and ``None`` limits) are unbounded.  Drop-tail on a
    per-class buffer: the crudest real-world shedder, and the
    benchmark the cleverer policies must beat — under *sustained*
    overload a full buffer keeps the server busy anyway, so the policy
    only wins when load arrives in bursts the bounded backlog can
    drain between (which phase-aligned tenant bursts guarantee).
    """

    name = "queue-depth"

    def __init__(self, limits):
        self.limits = dict(limits)
        for limit in self.limits.values():
            if limit is not None and limit < 1:
                raise ValueError("depth limits must be >= 1")

    def admit(self, index, spec, arrival_s, lag_s, depth):
        limit = self.limits.get(spec.qos.name)
        return limit is None or depth < limit

    def to_json(self):
        return {
            "policy": self.name,
            "limits": {
                name: self.limits[name] for name in sorted(self.limits)
            },
        }


class UtilizationFeedback(AdmissionPolicy):
    """Hysteresis controller on scheduling lag, shedding by priority.

    The control signal is ``lag_s`` — how long the oldest admitted
    request has been sitting unserved, i.e. the queueing delay the
    server is currently imposing on its backlog.  (Drain lateness
    would be the wrong signal: a server that completes one request
    every few milliseconds observes arrivals promptly however many
    seconds of work are queued behind them.)  At most once per
    ``period_s`` of arrival time the shed level moves one step: up
    when lag exceeds ``high_s``, down when it falls below ``low_s``.
    At level ``L`` every class with ``priority > max_priority - L`` is
    shed — bestEffort first, then silver; ``max_level`` defaults to 2
    so gold is never shed, however far behind the server runs (gold
    pays for that promise with its own queueing, never refusals).
    """

    name = "feedback"

    def __init__(self, high_s=0.04, low_s=0.01, period_s=0.02, max_level=2):
        if not 0.0 <= low_s < high_s:
            raise ValueError("need 0 <= low_s < high_s")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        self.high_s = high_s
        self.low_s = low_s
        self.period_s = period_s
        self.max_level = max_level
        self.level = 0
        self._next_eval = 0.0
        self._max_priority = max(
            qos.priority for qos in QOS_CLASSES.values()
        )

    def reset(self, mix):
        self.level = 0
        self._next_eval = 0.0
        priorities = [spec.qos.priority for spec in mix]
        self._max_priority = max(priorities) if priorities else 0

    def admit(self, index, spec, arrival_s, lag_s, depth):
        if arrival_s >= self._next_eval:
            if lag_s > self.high_s and self.level < self.max_level:
                self.level += 1
            elif lag_s < self.low_s and self.level > 0:
                self.level -= 1
            self._next_eval = arrival_s + self.period_s
        return spec.qos.priority <= self._max_priority - self.level

    def to_json(self):
        return {
            "policy": self.name,
            "high_s": self.high_s,
            "low_s": self.low_s,
            "period_s": self.period_s,
            "max_level": self.max_level,
        }


_POLICIES = {
    cls.name: cls
    for cls in (NoShed, StaticCaps, QueueDepthShed, UtilizationFeedback)
}


def make_admission_policy(kind, **params):
    """Factory keyed on the ``kind`` strings experiments sweep over."""
    try:
        cls = _POLICIES[kind]
    except KeyError:
        raise ValueError(
            "unknown admission policy {!r}; expected one of {}".format(
                kind, sorted(_POLICIES)
            )
        ) from None
    return cls(**params)
