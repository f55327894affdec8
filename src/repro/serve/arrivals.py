"""Open-loop arrival processes: Poisson, bursty (MMPP), diurnal.

An arrival process turns an aggregate request rate into a concrete,
deterministic sequence of arrival timestamps.  All three processes are
pure functions of the RNG handed in — the same ``(process, seed)``
always yields the same arrivals — which is what lets the serving
driver pre-generate request schedules and the experiment engine keep
serial and parallel sweeps byte-identical.

Tenant aggregation
------------------

The superposition of ``N`` independent Poisson streams of rate ``r``
is a Poisson stream of rate ``N*r``, so a tenant *class* of a hundred
thousand identical tenants costs exactly one stream to simulate —
request count scales with ``duration * N * r``, not with ``N``.  The
same collapse is applied to the modulated processes: burst phases and
diurnal cycles modulate the class's aggregate rate (tenants of one
class move together — the adversarial case for SLOs, since bursts
stack instead of averaging out).  :meth:`ArrivalProcess.aggregate`
performs the scaling; :class:`repro.serve.qos.TenantClassSpec` calls
it with its tenant count.
"""

import math
from dataclasses import dataclass, replace
from itertools import repeat
from math import log as _log
from operator import itemgetter

__all__ = [
    "ArrivalProcess",
    "ArrivalSchedule",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "aggregate",
    "make_arrival_process",
]


@dataclass(frozen=True)
class ArrivalProcess:
    """Base contract: a rate plus a deterministic timestamp generator."""

    #: Aggregate arrival rate in requests per simulated second.
    rate: float

    kind = "abstract"

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be non-negative")

    def arrival_times(self, rng, duration, modulation=None):
        """All arrivals in ``[0, duration)``, strictly increasing.

        ``modulation``, when given, is a separate RNG for the process's
        *envelope* draws (burst phase windows), leaving ``rng`` to the
        within-envelope arrival draws.  Handing every class of a mix an
        identically seeded ``modulation`` correlates their load surges
        (tenants move together) while keeping individual arrivals
        independent; by default the envelope shares ``rng``.

        A zero-rate process is the empty stream: no arrivals, and — so
        batched and streamed generation stay aligned — no RNG draws.
        """
        raise NotImplementedError

    def arrival_array(self, rng, duration, modulation=None):
        """The same arrivals as :meth:`arrival_times`, generated on the
        batched path.

        Contract (pinned by the property suite): the array is
        event-for-event identical to the streamed generator — same
        floats, same RNG consumption — so a schedule built from arrays
        is interchangeable with one built by streaming.  Subclasses
        override this with a draw-inlined loop; the base implementation
        simply delegates, which is always correct.
        """
        return self.arrival_times(rng, duration, modulation)

    def gaps(self, rng, duration, modulation=None):
        """The same arrivals as inter-arrival gaps (``AccessBatch.gaps``
        shape: gap ``i`` is the wait *before* arrival ``i``)."""
        gaps = []
        previous = 0.0
        for time in self.arrival_times(rng, duration, modulation):
            gaps.append(time - previous)
            previous = time
        return gaps

    def aggregate(self, tenants):
        """The superposed process of ``tenants`` identical streams."""
        if tenants < 1:
            raise ValueError("tenants must be >= 1")
        return replace(self, rate=self.rate * tenants)

    def to_json(self):
        doc = {"kind": self.kind}
        doc.update(
            (name, getattr(self, name)) for name in self.__dataclass_fields__
        )
        return doc


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential gaps at ``rate``."""

    kind = "poisson"

    def arrival_times(self, rng, duration, modulation=None):
        # Memoryless: there is no envelope, ``modulation`` is unused.
        if self.rate == 0.0:
            return []
        times = []
        now = 0.0
        expovariate = rng.expovariate
        rate = self.rate
        while True:
            now += expovariate(rate)
            if now >= duration:
                return times
            times.append(now)

    def arrival_array(self, rng, duration, modulation=None):
        # The gap draw inlined (``expovariate(rate)`` is exactly
        # ``-log(1 - random()) / rate`` — the stdlib's own expression),
        # which removes one Python method call per arrival without
        # changing a single float.
        if self.rate == 0.0:
            return []
        times = []
        append = times.append
        now = 0.0
        random = rng.random
        rate = self.rate
        while True:
            now += -_log(1.0 - random()) / rate
            if now >= duration:
                return times
            append(now)


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """MMPP on/off arrivals: exponential bursts at ``burst_factor`` times
    the mean rate, separated by silent periods.

    A two-state Markov-modulated Poisson process: the class is ON for
    an exponential holding time with mean ``on_fraction * cycle`` and
    OFF for mean ``(1 - on_fraction) * cycle``.  All arrivals happen
    while ON, at rate ``rate / on_fraction`` — so the time-average rate
    is exactly ``rate`` and the instantaneous burst intensity is
    ``1 / on_fraction`` (the ``burst_factor`` property) times the mean.
    """

    #: Fraction of time spent in the ON (bursting) state.
    on_fraction: float = 0.125
    #: Mean ON+OFF cycle length in seconds.
    cycle: float = 0.4

    kind = "bursty"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.on_fraction < 1.0:
            raise ValueError("on_fraction must be in (0, 1)")
        if self.cycle <= 0:
            raise ValueError("cycle must be positive")

    @property
    def burst_factor(self):
        """Instantaneous ON rate relative to the mean rate."""
        return 1.0 / self.on_fraction

    def arrival_times(self, rng, duration, modulation=None):
        if self.rate == 0.0:
            return []
        times = []
        expovariate = rng.expovariate
        window = (modulation or rng).expovariate
        on_rate = self.rate / self.on_fraction
        mean_on = self.on_fraction * self.cycle
        mean_off = (1.0 - self.on_fraction) * self.cycle
        now = 0.0
        while now < duration:
            # ON: a burst of exponential gaps at the boosted rate.
            on_end = now + window(1.0 / mean_on)
            while True:
                now += expovariate(on_rate)
                if now >= on_end or now >= duration:
                    break
                times.append(now)
            # OFF: silence.
            now = on_end + window(1.0 / mean_off)
        return [time for time in times if time < duration]

    def arrival_array(self, rng, duration, modulation=None):
        # Hot loop (within-burst gaps) draw-inlined; the cold envelope
        # draws keep calling ``expovariate`` on the modulation RNG, so
        # phase alignment across classes is untouched.
        if self.rate == 0.0:
            return []
        times = []
        append = times.append
        random = rng.random
        window = (modulation or rng).expovariate
        on_rate = self.rate / self.on_fraction
        mean_on = self.on_fraction * self.cycle
        mean_off = (1.0 - self.on_fraction) * self.cycle
        now = 0.0
        while now < duration:
            on_end = now + window(1.0 / mean_on)
            while True:
                now += -_log(1.0 - random()) / on_rate
                if now >= on_end or now >= duration:
                    break
                append(now)
            now = on_end + window(1.0 / mean_off)
        return [time for time in times if time < duration]


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated arrivals (a compressed day/night cycle).

    Instantaneous rate ``rate * (1 + depth * sin(2*pi*t / period))``,
    sampled by thinning (Lewis-Shedler): candidates are drawn at the
    peak rate and accepted with probability ``lambda(t) / peak`` — one
    extra uniform draw per candidate, still a pure function of the RNG.
    """

    #: Cycle length in simulated seconds (a scaled-down "day").
    period: float = 2.0
    #: Modulation depth in [0, 1): 0 = flat, 0.9 = deep trough.
    depth: float = 0.8

    kind = "diurnal"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.depth < 1.0:
            raise ValueError("depth must be in [0, 1)")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def arrival_times(self, rng, duration, modulation=None):
        # The envelope is the deterministic sinusoid itself — classes
        # sharing (period, depth) are already phase-aligned, so
        # ``modulation`` is unused.
        if self.rate == 0.0:
            return []
        times = []
        expovariate = rng.expovariate
        random = rng.random
        peak = self.rate * (1.0 + self.depth)
        omega = 2.0 * math.pi / self.period
        now = 0.0
        while True:
            now += expovariate(peak)
            if now >= duration:
                return times
            intensity = self.rate * (1.0 + self.depth * math.sin(omega * now))
            if random() * peak < intensity:
                times.append(now)

    def arrival_array(self, rng, duration, modulation=None):
        # Candidate draw inlined; the thinning acceptance keeps the
        # exact streamed arithmetic (one uniform per candidate).
        if self.rate == 0.0:
            return []
        times = []
        append = times.append
        random = rng.random
        sin = math.sin
        rate = self.rate
        depth = self.depth
        peak = rate * (1.0 + depth)
        omega = 2.0 * math.pi / self.period
        now = 0.0
        while True:
            now += -_log(1.0 - random()) / peak
            if now >= duration:
                return times
            intensity = rate * (1.0 + depth * sin(omega * now))
            if random() * peak < intensity:
                append(now)


@dataclass
class ArrivalSchedule:
    """A whole mix's arrivals, superposed into flat parallel arrays.

    ``times[k]`` is the ``k``-th arrival of the *merged* schedule
    (ascending, ties broken by class index) and ``classes[k]`` the
    index of the tenant class it belongs to; ``per_class[i]`` counts
    class ``i``'s arrivals.  This is the batched contract the serving
    driver consumes directly — one admission scan over two arrays
    instead of a per-request scan across per-class queues.
    """

    #: Merged arrival timestamps, ascending, relative to the epoch.
    times: list
    #: Parallel class index per arrival.
    classes: list
    #: Arrival count per class, in mix order.
    per_class: tuple

    def __post_init__(self):
        if len(self.times) != len(self.classes):
            raise ValueError(
                "times ({}) and classes ({}) must be parallel".format(
                    len(self.times), len(self.classes)
                )
            )

    def __len__(self):
        return len(self.times)

    def class_times(self, index):
        """Class ``index``'s own arrivals, in order (for cross-checks)."""
        return [
            time for time, cls in zip(self.times, self.classes)
            if cls == index
        ]


def _resolve_process(entry):
    """An entry of a mix: a TenantClassSpec-like object (duck-typed on
    its ``arrival_process`` hook) or a bare :class:`ArrivalProcess`."""
    process = getattr(entry, "arrival_process", None)
    if process is not None:
        return process
    if isinstance(entry, ArrivalProcess):
        return entry
    raise TypeError(
        "mix entries must be ArrivalProcess instances or expose an "
        "arrival_process hook; got {!r}".format(type(entry).__name__)
    )


def aggregate(mix, rng, duration):
    """Superpose every class of ``mix`` into one :class:`ArrivalSchedule`.

    ``rng`` is an :class:`~repro.sim.rng.RngStreams`: class ``i`` draws
    its arrivals from the named stream ``serve-arrivals{i}`` — exactly
    the streams the serving driver has always used, so the batched
    schedule is event-for-event identical to per-class streamed
    generation.  Every class gets a *fresh, identically seeded*
    modulation RNG (derived from the master seed), so burst envelopes
    are phase-aligned across classes: a surge is a surge for everyone
    (tenants move together).  Uncorrelated phases would let a class's
    private burst hit a congested window no other class sees —
    breaking the cross-class delay dominance the priority scheduler
    otherwise guarantees.

    Edge cases are first-class: an empty mix or a zero-rate class
    yields an empty contribution (no arrivals, no RNG draws), and a
    duration shorter than one burst phase simply truncates the window.
    """
    import random as random_module

    from repro.sim.rng import derive_seed

    per_class = []
    merged = []
    for index, entry in enumerate(mix):
        process = _resolve_process(entry)
        modulation = random_module.Random(
            derive_seed(rng.seed, "serve-modulation")
        )
        times = process.arrival_array(
            rng.stream("serve-arrivals{}".format(index)), duration,
            modulation,
        )
        per_class.append(len(times))
        merged.extend(zip(times, repeat(index)))
    # One C sort of the concatenated class runs.  Each run ascends, so
    # this is the k-way merge, and whole-tuple order breaks time ties by
    # class index.
    merged.sort()
    return ArrivalSchedule(
        times=list(map(itemgetter(0), merged)),
        classes=list(map(itemgetter(1), merged)),
        per_class=tuple(per_class),
    )


_KINDS = {
    cls.kind: cls
    for cls in (PoissonArrivals, BurstyArrivals, DiurnalArrivals)
}


def make_arrival_process(kind, rate, **params):
    """Factory keyed on the ``kind`` strings experiments sweep over."""
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ValueError(
            "unknown arrival kind {!r}; expected one of {}".format(
                kind, sorted(_KINDS)
            )
        ) from None
    return cls(rate=rate, **params)
