"""Structured event tracing for simulation runs.

A :class:`Tracer` collects *typed* events — spans with a simulated
begin/end and instants at one timestamp — from every layer of a run:
the paging substrate (``page.fault``), the tier cascade
(``tier.hit/miss/demote``), the fabric and retry stack
(``net.send/retry/timeout``), the fault driver
(``fault.inject/recover``), the balance migration engine
(``migrate.reserve/copy/remap/abort``) and the serving front end
(``serve.request`` spans, ``admit.shed`` refusal instants).

Determinism is the design constraint: event ids come from a per-tracer
monotonic counter, timestamps are simulated time, and track names are
process names — no wall clock, PIDs or object ids anywhere — so two
runs of the same (spec, seed) produce byte-identical traces whatever
machine or worker pool executed them.

When tracing is disabled (the default), every simulation environment
carries the shared :data:`NULL_TRACER` whose ``enabled`` flag lets hot
paths skip event construction entirely — the disabled tracer costs one
attribute read and one branch per call site.
"""

import math
from itertools import count

from repro.trace.histogram import HistogramSet

#: The event taxonomy.  Exporters and the analyzer treat the dotted
#: prefix as the category; anything outside this set is a programming
#: error caught at record time.
EVENT_NAMES = frozenset({
    "page.fault",
    "tier.hit",
    "tier.miss",
    "tier.demote",
    "tier.put",
    "net.send",
    "net.retry",
    "net.timeout",
    "fault.inject",
    "fault.recover",
    "migrate.reserve",
    "migrate.copy",
    "migrate.remap",
    "migrate.abort",
    "ec.encode",
    "ec.reconstruct",
    "flatpath.bulk",
    "alloc.reserve",
    "alloc.free",
    "alloc.compact",
    "serve.request",
    "admit.shed",
})

#: Category of kernel-bookkeeping events that exist only on fast-path
#: runs.  They draw sequence numbers from a separate counter so that
#: stripping them (``repro.trace.export.without_categories``) recovers
#: a byte-identical event-path trace — no fast-path event ever shifts
#: the ``seq`` of a semantic event.
META_CATEGORY = "flatpath."

#: Track used for events emitted outside any simulation process.
MAIN_TRACK = "main"


class Span:
    """An open span: returned by :meth:`Tracer.begin`, closed by ``end``."""

    __slots__ = ("name", "track", "begin", "seq", "args")

    def __init__(self, name, track, begin, seq, args):
        self.name = name
        self.track = track
        self.begin = begin
        self.seq = seq
        self.args = args


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites guard hot paths with ``if tracer.enabled:`` so a
    disabled run never builds argument dicts; the methods still exist
    (and return ``None``) for call sites too cold to bother guarding.
    """

    enabled = False

    def begin(self, name, **args):
        return None

    def end(self, span, **extra):
        return None

    def instant(self, name, **args):
        return None

    def latency(self, category, op, seconds):
        return None


#: The shared disabled tracer every environment starts with.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects events and latency histograms for one environment.

    Parameters
    ----------
    env:
        The owning simulation environment.  The tracer reads only
        ``env.now`` (timestamps) and ``env.active_process`` (track
        attribution) — it never mutates the environment.
    filter:
        Optional iterable of event-name prefixes (e.g. ``("tier",
        "net.send")``); events matching no prefix are dropped at record
        time.  Latency histograms are unaffected by the filter.
    """

    enabled = True

    def __init__(self, env, filter=None):
        self.env = env
        self.events = []
        self.histograms = HistogramSet()
        self._seq = count()
        self._meta_seq = count()
        self._filter = tuple(filter) if filter else None

    # -- internals -----------------------------------------------------------

    def _next_seq(self, name):
        counter = (
            self._meta_seq if name.startswith(META_CATEGORY) else self._seq
        )
        return next(counter)

    def _track(self):
        process = getattr(self.env, "active_process", None)
        if process is None:
            return MAIN_TRACK
        return process.name

    def _wanted(self, name):
        if name not in EVENT_NAMES:
            raise ValueError(
                "unknown trace event {!r}; taxonomy: {}".format(
                    name, ", ".join(sorted(EVENT_NAMES))
                )
            )
        if self._filter is None:
            return True
        return any(name.startswith(prefix) for prefix in self._filter)

    # -- recording -----------------------------------------------------------

    def begin(self, name, **args):
        """Open a span; returns the handle to pass to :meth:`end`.

        Returns ``None`` for filtered-out names, which :meth:`end`
        accepts and ignores — call sites need no second filter check.
        """
        if not self._wanted(name):
            return None
        return Span(
            name, self._track(), self.env.now, self._next_seq(name), args
        )

    def end(self, span, **extra):
        """Close a span (no-op when ``begin`` filtered it out)."""
        if span is None:
            return None
        if extra:
            span.args.update(extra)
        return self._close(span, self.env.now)

    def span_at(self, name, begin, end, track, **args):
        """Record a whole span with explicit ``begin`` and ``end`` times
        on ``track``: an operation booked ahead of its running, like a
        gathered transfer."""
        if not self._wanted(name):
            return None
        return self._close(
            Span(name, track, begin, self._next_seq(name), args), end
        )

    def _close(self, span, now):
        dur = now - span.begin
        # Float-safe duration: ``ts + dur`` must reconstruct an end no
        # later than ``now``, or two sibling spans sharing a boundary
        # timestamp would appear to overlap downstream (the subtraction
        # can round the reconstructed end one ulp past the true end).
        while dur > 0.0 and span.begin + dur > now:
            dur = math.nextafter(dur, 0.0)
        event = {
            "name": span.name,
            "ph": "X",
            "ts": span.begin,
            "dur": dur,
            "track": span.track,
            "seq": span.seq,
            "args": span.args,
        }
        self.events.append(event)
        return event

    def instant(self, name, **args):
        """Record a zero-duration event at the current simulated time."""
        if not self._wanted(name):
            return None
        event = {
            "name": name,
            "ph": "i",
            "ts": self.env.now,
            "dur": 0.0,
            "track": self._track(),
            "seq": self._next_seq(name),
            "args": args,
        }
        self.events.append(event)
        return event

    def latency(self, category, op, seconds):
        """Record one operation's service time into the histogram set."""
        self.histograms.record(category, op, seconds)

    # -- access --------------------------------------------------------------

    def events_json(self):
        """The event list on the JSON wire shape (already plain data)."""
        return list(self.events)

    def histogram_rows(self):
        return self.histograms.rows()
