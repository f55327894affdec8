"""The paging substrate: resident set, faults, and the backend contract.

:class:`VirtualMemory` models the guest MMU + kernel swap logic of one
virtual server.  Page accesses either hit the resident set (cheap), hit
the prefetch buffer / swap cache (a DRAM copy), or fault — at which
point the configured :class:`SwapBackend` is charged for the swap-in,
and LRU eviction may charge a swap-out.

Design notes
------------
* Completion time is dominated by fault service; resident hits and
  per-access compute are accumulated and charged in bulk right before
  any I/O, which keeps the event count (and wall-clock runtime) low
  without changing simulated time.
* The per-access fast cases stay off the generator machinery: a
  resident hit is served by the plain :meth:`VirtualMemory.touch`, and
  the end-of-operation charge by :meth:`VirtualMemory.settle`, which
  advances the clock in place when nothing could observe the wait and
  the backend holds no buffered writes.
* A page evicted clean whose swap copy is still valid costs nothing on
  the way out (Linux swap-cache semantics); dirty pages always pay the
  backend's write path.
"""

from collections import OrderedDict
from itertools import islice
from math import inf

from repro.hw.latency import CpuSpec
from repro.sim import flatpath


#: Operations :meth:`VirtualMemory.serve_ops` serves per latency
#: flush: the most op latencies it buffers.
SERVE_BLOCK = 1024


class PagingStats:
    """Counters for one paging run."""

    __slots__ = (
        "accesses",
        "resident_hits",
        "prefetch_hits",
        "major_faults",
        "minor_faults",
        "swap_ins",
        "swap_outs",
        "start_time",
        "end_time",
    )

    def __init__(self):
        self.accesses = 0
        self.resident_hits = 0
        self.prefetch_hits = 0
        self.major_faults = 0
        self.minor_faults = 0
        self.swap_ins = 0
        self.swap_outs = 0
        self.start_time = 0.0
        self.end_time = 0.0

    @property
    def completion_time(self):
        return self.end_time - self.start_time

    @property
    def fault_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.major_faults / self.accesses

    def snapshot(self):
        return {name: getattr(self, name) for name in self.__slots__}


class SwapBackend:
    """Contract every swap backend implements.

    Backends are charged simulated time through their generator
    methods; they never touch the resident set — that is
    :class:`VirtualMemory`'s job.
    """

    name = "abstract"

    def setup(self):
        """Generator: one-time initialization (slab reservation etc.)."""
        return
        yield  # pragma: no cover

    def swap_out(self, page):
        """Generator: persist ``page`` out of DRAM."""
        raise NotImplementedError

    def swap_in(self, page):
        """Generator: bring ``page`` back.  Returns a list of *extra*
        pages the backend opportunistically fetched in the same request
        (readahead / proactive batch swap-in); may be empty."""
        raise NotImplementedError

    def drain(self):
        """Generator: flush any buffered writes (end-of-run barrier)."""
        return
        yield  # pragma: no cover

    def buffered(self):
        """True while :meth:`drain` has writes to flush; a backend that
        overrides ``drain`` overrides this too."""
        return False

    def discard(self, page):
        """Invalidate the backend copy of ``page`` (freed by the guest)."""


class VirtualMemory:
    """One virtual server's memory under pressure.

    Parameters
    ----------
    env:
        Simulation environment.
    pages:
        All pages of the working set (:class:`repro.mem.page.Page`).
    capacity_pages:
        Resident-set capacity; ``capacity / len(pages)`` is the paper's
        "N% configuration".
    backend:
        The swap backend to charge for misses.
    cpu:
        :class:`~repro.hw.latency.CpuSpec` for fault-path costs.
    prefetch_capacity:
        Size of the prefetch buffer / swap cache, in pages.
    fallback_windows:
        ``(start, end)`` spans of simulated time during which the
        flat-path kernel must not run (fault-injection windows); the
        event engine handles every access inside them.  Only consulted
        by :meth:`run_batch` — the streamed :meth:`access` path ignores
        them.
    """

    #: Cost of a resident hit (TLB+cache-missing DRAM access).
    HIT_TIME = 120e-9
    #: Cost of promoting a prefetched page (DRAM page copy + map).
    PROMOTE_TIME = 0.9e-6

    def __init__(self, env, pages, capacity_pages, backend, cpu=None,
                 prefetch_capacity=128, compute_per_access=1.0e-6,
                 fault_histogram=None, fallback_windows=()):
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.env = env
        self.pages = {page.page_id: page for page in pages}
        self.capacity_pages = capacity_pages
        self.backend = backend
        self.cpu = cpu or CpuSpec()
        self.prefetch_capacity = prefetch_capacity
        self.compute_per_access = compute_per_access
        #: Optional :class:`repro.trace.histogram.LatencyHistogram`:
        #: when set, every major fault's service time is recorded, so
        #: experiments can report tail latency per backend.
        self.fault_histogram = fault_histogram
        self.resident = OrderedDict()
        self.prefetch = OrderedDict()
        self.swapped_valid = set()
        self.stats = PagingStats()
        self._pending_time = 0.0
        self.fallback_windows = tuple(sorted(fallback_windows))
        #: What the flat-path kernel did for this instance.
        self.flat_stats = flatpath.FlatPathStats()

    # -- capacity (ballooning hook) ------------------------------------------

    def grow_capacity(self, extra_pages):
        """Balloon: grant the server ``extra_pages`` more resident frames."""
        self.capacity_pages += extra_pages

    # -- main entry point ------------------------------------------------------

    def touch(self, page_id, write=False):
        """Serve one access if the page is resident.

        A plain call, no generator: True when the access was a resident
        hit, counted and charged; False, with nothing counted, when the
        page is not resident and the access must run through ``yield
        from`` :meth:`access` instead.
        """
        resident = self.resident
        if page_id not in resident:
            return False
        self.stats.accesses += 1
        self._pending_time += self.compute_per_access
        resident.move_to_end(page_id)
        self._pending_time += self.HIT_TIME
        self.stats.resident_hits += 1
        if write:
            page = self.pages[page_id]
            page.dirty = True
            # Writing invalidates any swap-cache copy.
            if page_id in self.swapped_valid:
                self.swapped_valid.discard(page_id)
                self.backend.discard(page)
        return True

    def access(self, page_id, write=False):
        """Generator: one memory access; charges whatever it costs.

        A resident hit is served by :meth:`touch` without suspending,
        so hot loops call ``touch`` first and enter this generator only
        for a miss: a swap-cache promote, a demand-zero fault or a
        major fault.
        """
        if self.touch(page_id, write):
            return
        self.stats.accesses += 1
        self._pending_time += self.compute_per_access
        page = self.pages[page_id]
        if page_id in self.prefetch:
            # Swap-cache hit: promote without backend I/O.
            del self.prefetch[page_id]
            self._pending_time += self.PROMOTE_TIME
            self.stats.prefetch_hits += 1
            self.stats.minor_faults += 1
            yield from self._make_room()
            self._insert_resident(page, write)
            return

        # Real fault.
        self._pending_time += self.cpu.page_fault_overhead + self.cpu.context_switch
        yield from self._flush_pending()
        yield from self._make_room()
        if page_id in self.swapped_valid:
            self.stats.major_faults += 1
            fault_started = self.env.now
            tracer = self.env.tracer
            span = (
                tracer.begin("page.fault", page=page_id, write=write)
                if tracer.enabled else None
            )
            extra = yield from self.backend.swap_in(page)
            if span is not None:
                tracer.end(span, prefetched=len(extra) if extra else 0)
                tracer.latency("fault", "major", self.env.now - fault_started)
            if self.fault_histogram is not None:
                self.fault_histogram.record(self.env.now - fault_started)
            self.stats.swap_ins += 1
            self._absorb_prefetched(extra or ())
        else:
            # First touch: demand-zero fault, no backend involved.
            self.stats.minor_faults += 1
        self._insert_resident(page, write)

    def serve_ops(self, operations, start, duration, window, timeline,
                  latencies=None):
        """Generator: a closed-loop client serving ``operations`` until
        ``duration`` simulated seconds past ``start``; returns the
        number of operations completed.

        Each ``(first_page, count, is_write)`` op touches its pages and
        then charges their time.  Whenever the clock reaches the end of
        a ``window``, ``(window_end - start, window_ops / window)`` goes
        onto ``timeline``.  ``latencies`` (a
        :class:`~repro.trace.histogram.LatencyHistogram`), when given,
        gets every op's latency, in blocks of :data:`SERVE_BLOCK`.

        An op whose pages are all resident is served in place with
        :meth:`touch`'s and :meth:`settle`'s float additions: its end
        ``now + pending`` becomes the clock when it is within the run's
        horizon, strictly earlier than the heap head, and the backend
        holds no buffered writes.  Every other op runs :meth:`touch` or
        :meth:`access` per page and then :meth:`settle` or
        :meth:`flush`.  Nothing but such an op moves the clock, the
        horizon or the heap head while this process runs, so they are
        re-read only after one, and the head after a write's
        swap-copy discard too.
        """
        env = self.env
        heap = env._heap
        stats = self.stats
        resident = self.resident
        is_resident = resident.__contains__
        move_to_end = resident.move_to_end
        pages = self.pages
        swapped_valid = self.swapped_valid
        discard = self.backend.discard
        buffered = self.backend.buffered
        touch = self.touch
        compute = self.compute_per_access
        hit_time = self.HIT_TIME
        # One page's two additions to the zero pending time an op starts at.
        page_cost = compute + hit_time
        samples = None if latencies is None else []
        now = env.now
        horizon = env._horizon
        head = heap[0][0] if heap else inf
        window_end = start + window
        window_ops = 0
        done = 0
        hits = 0
        while now - start < duration:
            for first_page, count, is_write in islice(operations, SERVE_BLOCK):
                began = now
                if first_page in resident and (
                    count == 1
                    or all(map(is_resident,
                               range(first_page + 1, first_page + count)))
                ):
                    if count == 1:
                        pending = page_cost
                        move_to_end(first_page)
                    else:
                        pending = 0.0
                        for page_id in range(first_page, first_page + count):
                            pending += compute
                            move_to_end(page_id)
                            pending += hit_time
                    if is_write:
                        for page_id in range(first_page, first_page + count):
                            page = pages[page_id]
                            page.dirty = True
                            if page_id in swapped_valid:
                                swapped_valid.discard(page_id)
                                discard(page)
                                head = heap[0][0] if heap else inf
                    hits += count
                    when = now + pending
                    if when <= horizon and when < head:
                        env.now = now = when
                        slow = buffered()
                    else:
                        self._pending_time = pending
                        slow = True
                    if slow:
                        stats.accesses += hits
                        stats.resident_hits += hits
                        hits = 0
                        yield from self.flush()
                else:
                    slow = True
                    stats.accesses += hits
                    stats.resident_hits += hits
                    hits = 0
                    for page_id in range(first_page, first_page + count):
                        if not touch(page_id, is_write):
                            yield from self.access(page_id, is_write)
                    if not self.settle():
                        yield from self.flush()
                if slow:
                    now = env.now
                    horizon = env._horizon
                    head = heap[0][0] if heap else inf
                if samples is not None:
                    samples.append(now - began)
                done += 1
                window_ops += 1
                while now >= window_end:
                    timeline.append((window_end - start, window_ops / window))
                    window_ops = 0
                    window_end += window
                if not now - start < duration:
                    break
            if samples:
                latencies.record_many(samples)
                samples.clear()
        stats.accesses += hits
        stats.resident_hits += hits
        return done

    def run_batch(self, batch, start=0, stop=None):
        """Generator: drive a pre-materialized
        :class:`~repro.workloads.batch.AccessBatch` (two-speed engine).

        Fault-free stretches execute through the flat-path kernel
        (:func:`repro.sim.flatpath.advance`); every boundary access —
        major fault, eviction I/O, scheduled events, fault-injection
        window, held migration epoch — runs through the ordinary
        :meth:`access` generator, so the run is bit-identical to
        streaming the same reference string one access at a time.

        ``start``/``stop`` select the half-open access slice
        ``[start, stop)`` (default: the whole batch) without copying:
        request-oriented callers — the serving driver above all —
        build one batch per tenant class and replay it one request
        window at a time, so a million-user schedule costs zero
        per-request array allocations.

        Open-loop batches (``gaps`` set) are not bulked: the timed
        waits between accesses must interleave with other processes,
        so the whole batch runs on the event engine.
        """
        addresses = batch.addresses
        writes = batch.writes
        gaps = batch.gaps
        total = len(addresses) if stop is None else stop
        if gaps is not None:
            for index in range(start, total):
                gap = gaps[index]
                if gap > 0.0:
                    yield self.env.timeout(gap)
                yield from self.access(addresses[index], write=writes[index])
            return
        resident = self.resident
        prefetch = self.prefetch
        swapped_valid = self.swapped_valid
        index = start
        while index < total:
            # Cheap pre-checks: an access that would immediately hit a
            # boundary — a major fault, or an eviction whose LRU victim
            # needs swap-out I/O — goes straight to the event engine.
            # Fault storms and thrashing would otherwise pay the
            # kernel's entry cost once per access for zero bulked work.
            page_id = addresses[index]
            if page_id not in resident:
                if page_id not in prefetch and page_id in swapped_valid:
                    yield from self.access(page_id, write=writes[index])
                    index += 1
                    continue
                if len(resident) >= self.capacity_pages:
                    victim_id, victim = next(iter(resident.items()))
                    if victim.dirty or victim_id not in swapped_valid:
                        yield from self.access(page_id, write=writes[index])
                        index += 1
                        continue
            index, reason = flatpath.advance(
                self, addresses, writes, index, total
            )
            if reason is None:
                break
            yield from self.access(addresses[index], write=writes[index])
            index += 1

    def settle(self):
        """Charge accumulated cheap-path time without an event, if it can.

        A plain call: True when the pending time was charged in place
        (:meth:`Environment.advance <repro.sim.engine.Environment.
        advance>`) and the backend has nothing buffered, so there is
        nothing left to flush; otherwise the caller finishes with
        ``yield from`` :meth:`flush`.
        """
        pending = self._pending_time
        if pending > 0.0:
            if not self.env.advance(pending):
                return False
            self._pending_time = 0.0
        return not self.backend.buffered()

    def flush(self):
        """Generator: charge accumulated cheap-path time (end of run)."""
        yield from self._flush_pending()
        yield from self.backend.drain()

    # -- internals ----------------------------------------------------------

    def _flush_pending(self):
        pending = self._pending_time
        if pending > 0.0:
            self._pending_time = 0.0
            if not self.env.advance(pending):
                yield self.env.timeout(pending)

    def _insert_resident(self, page, write):
        if write:
            page.dirty = True
            # The swap copy (if any) is stale once the page is written.
            if page.page_id in self.swapped_valid:
                self.swapped_valid.discard(page.page_id)
                self.backend.discard(page)
        self.resident[page.page_id] = page

    def _make_room(self):
        while len(self.resident) >= self.capacity_pages:
            victim_id, victim = self.resident.popitem(last=False)
            if victim.dirty or victim_id not in self.swapped_valid:
                yield from self.backend.swap_out(victim)
                self.stats.swap_outs += 1
                victim.dirty = False
            self.swapped_valid.add(victim_id)

    def _absorb_prefetched(self, extra_pages):
        for page in extra_pages:
            if page.page_id in self.resident or page.page_id in self.prefetch:
                continue
            self.prefetch[page.page_id] = page
            # Prefetched pages keep their swap copy; dropping them from
            # the buffer later costs nothing.
            while len(self.prefetch) > self.prefetch_capacity:
                self.prefetch.popitem(last=False)
