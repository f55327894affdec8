"""The flat-path kernel: fault-free access stretches without events.

The event engine charges a paging access through a generator resume per
access, even though the overwhelmingly common cases — a resident hit, a
swap-cache promote with clean evictions, a demand-zero fault with an
empty schedule — never suspend, or suspend only to fire a single
timeout that nothing can interleave with.  :func:`advance` executes
such stretches as flat arithmetic over a pre-materialized address
array (in the style of trace-driven cycle accounting: a running
``avail_cycle`` per device instead of one event object per request),
mutating the *same* :class:`~repro.swap.base.VirtualMemory` state in
the *same* order, so a run that mixes both speeds is bit-identical to
a pure event-engine run.

Equivalence contract (checked by the golden and property tests):

* only zero-yield access shapes are inlined — resident hits, and
  swap-cache promotes whose evictions are all clean;
* a demand-zero minor fault (which flushes pending time through one
  timeout) is inlined only when that timeout would pop strictly before
  every event already on the heap: it then fires with nothing able to
  observe the wait, so adding to the clock directly is the identical
  float computation (a strict compare wins every tie-break, whatever
  the other event's priority or sequence number);
* pending-time accumulation replicates the event path's exact float
  addition order (one ``+=`` per component per access — never a
  factored ``n * (a + b)``);
* everything else — major faults, dirty eviction I/O, fault-injection
  windows, migration epochs (``env.bulk_holds``), retries/timeouts
  (which imply a non-empty heap) — is a *boundary*: the kernel stops
  before touching the access and hands it back to the event engine.

``env._seq`` is deliberately not consumed for inlined timeouts: the
skipped draws shift every later event's tie-break sequence number by
the same amount, which preserves the relative order of all heap
entries and therefore the event-engine behaviour.
"""

__all__ = ["FlatPathStats", "advance"]

#: Boundary reasons, as recorded in :class:`FlatPathStats.boundaries`.
BOUNDARY_REASONS = (
    "bulk-hold",      # a held protocol window (e.g. staged migration)
    "fault-window",   # inside / about to enter a fault-injection window
    "sched-events",   # heap not empty: a flush could interleave
    "major-fault",    # backend swap-in I/O
    "eviction-io",    # a dirty (or invalid-copy) victim needs swap-out
)


class FlatPathStats:
    """What the kernel did for one :class:`VirtualMemory` instance."""

    __slots__ = ("bulk_runs", "bulk_accesses", "boundaries")

    def __init__(self):
        #: Bulk stretches that executed at least one access.
        self.bulk_runs = 0
        #: Accesses executed inline (the rest went to the event engine).
        self.bulk_accesses = 0
        #: Boundary reason -> count of stretches stopped by it.
        self.boundaries = {}

    def note(self, reason):
        self.boundaries[reason] = self.boundaries.get(reason, 0) + 1

    def snapshot(self):
        return {
            "bulk_runs": self.bulk_runs,
            "bulk_accesses": self.bulk_accesses,
            "boundaries": dict(sorted(self.boundaries.items())),
        }


def _window_state(windows, now):
    """``(inside, horizon)``: whether ``now`` is inside a fallback
    window, and the earliest window start strictly after ``now``."""
    inside = False
    horizon = float("inf")
    for start, end in windows:
        if start <= now < end:
            inside = True
            break
        if now < start < horizon:
            horizon = start
    return inside, horizon


def advance(vm, addresses, writes, start, stop=None):
    """Execute accesses ``[start, stop)`` inline until a boundary.

    Returns ``(index, reason)``: accesses ``[start, index)`` are fully
    charged; ``reason`` is ``None`` when the stretch ran to ``stop``
    (default: the end of the arrays), else the boundary that stopped it
    — in which case the caller must run access ``index`` (untouched by
    the kernel) through the event engine and call back in.
    """
    env = vm.env
    total = len(addresses) if stop is None else stop
    flat = vm.flat_stats
    if start >= total:
        return start, None
    if env.bulk_holds:
        flat.note("bulk-hold")
        return start, "bulk-hold"
    inside, horizon = _window_state(vm.fallback_windows, env.now)
    if inside:
        flat.note("fault-window")
        return start, "fault-window"

    resident = vm.resident
    move_to_end = resident.move_to_end
    prefetch = vm.prefetch
    swapped_valid = vm.swapped_valid
    pages = vm.pages
    backend = vm.backend
    capacity = vm.capacity_pages
    compute = vm.compute_per_access
    hit_time = vm.HIT_TIME
    promote_time = vm.PROMOTE_TIME
    # The event path evaluates the sum before the +=, so one precomputed
    # float is the identical quantity.
    fault_overhead = vm.cpu.page_fault_overhead + vm.cpu.context_switch
    # A demand-zero fault with nothing pending flushes exactly
    # ``(0.0 + compute) + fault_overhead`` — a constant (``0.0 + x``
    # is ``x``), so runs of first touches skip the flush arithmetic.
    zero_flush = compute + fault_overhead
    zero_flush_positive = zero_flush > 0.0
    # The resident set only ever holds this VM's pages, so a working
    # set that fits outright can never evict — skip the checks.
    evict_possible = len(pages) > capacity
    heap = env._heap
    pending = vm._pending_time
    # Nothing observes the clock inside a bulk stretch (no process can
    # run, and the only inline backend call — ``discard`` — is
    # timeless), so the clock lives in a local until the epilogue.
    now = env.now

    tracer = env.tracer
    span = tracer.begin("flatpath.bulk") if tracer.enabled else None

    # Per-access counters are derived, not incremented: every executed
    # access is exactly one of {resident hit, promote, demand-zero},
    # and both miss shapes grow the resident set by one, so the miss
    # split falls out of ``len(resident)`` growth plus the eviction
    # count — the hot paths carry no counter bookkeeping at all
    # (``executed = index - start`` at the end).
    prefetch_hits = 0
    resident_before = len(resident)
    evicted = 0
    # Untouched swap state (nothing prefetched, no valid swap copies):
    # every miss is necessarily demand-zero and every eviction
    # necessarily needs swap-out I/O.  The flag is loop-invariant —
    # the only inline operation that populates ``swapped_valid`` is a
    # clean eviction, which in this state boundaries out instead — so
    # misses skip the classification probes entirely.
    virgin = not prefetch and not swapped_valid
    reason = None
    for index in range(start, total):
        page_id = addresses[index]

        if page_id in resident:
            # Resident hit: never advances the clock, always inline.
            pending += compute
            move_to_end(page_id)
            pending += hit_time
            if writes[index]:
                page = pages[page_id]
                page.dirty = True
                if not virgin and page_id in swapped_valid:
                    swapped_valid.discard(page_id)
                    backend.discard(page)
            continue

        if virgin:
            # Probe-free demand-zero (see the ``virgin`` note above).
            if evict_possible and len(resident) >= capacity:
                reason = "eviction-io"
                break
            if pending == 0.0:
                new_now = now + zero_flush if zero_flush_positive else now
            else:
                flush = pending + compute
                flush += fault_overhead
                new_now = now + flush if flush > 0.0 else now
            if heap and heap[0][0] <= new_now:
                reason = "sched-events"
                break
            if new_now >= horizon:
                reason = "fault-window"
                break
            now = new_now
            pending = 0.0
            page = pages[page_id]
            if writes[index]:
                page.dirty = True
            resident[page_id] = page
            continue

        # A miss.  Classify it *before* mutating anything, so a
        # boundary access reaches the event engine untouched.
        in_prefetch = page_id in prefetch
        if not in_prefetch and page_id in swapped_valid:
            reason = "major-fault"
            break
        if evict_possible:
            evictions = len(resident) - capacity + 1
            if evictions > 0:
                clean = True
                for victim_id, victim in resident.items():
                    if victim.dirty or victim_id not in swapped_valid:
                        clean = False
                        break
                    evictions -= 1
                    if evictions == 0:
                        break
                if not clean:
                    reason = "eviction-io"
                    break

        if in_prefetch:
            # Swap-cache promote: clean evictions yield nothing, so the
            # whole access is zero-yield and clock-neutral.
            pending += compute
            del prefetch[page_id]
            pending += promote_time
            prefetch_hits += 1
            if evict_possible:
                while len(resident) >= capacity:
                    victim_id, _victim = resident.popitem(last=False)
                    swapped_valid.add(victim_id)
                    evicted += 1
            page = pages[page_id]
            if writes[index]:
                page.dirty = True
                if page_id in swapped_valid:
                    swapped_valid.discard(page_id)
                    backend.discard(page)
            resident[page_id] = page
        else:
            # Demand-zero minor fault: flushes pending time through one
            # timeout, advancing the clock.  Inline only when that
            # timeout would pop strictly before anything already on the
            # heap (so nothing can interleave — a strict compare wins
            # every priority/seq tie-break), and only if the jump stays
            # clear of the next fault-injection window.
            if pending == 0.0:
                new_now = now + zero_flush if zero_flush_positive else now
            else:
                flush = pending + compute
                flush += fault_overhead
                new_now = now + flush if flush > 0.0 else now
            if heap and heap[0][0] <= new_now:
                reason = "sched-events"
                break
            if new_now >= horizon:
                reason = "fault-window"
                break
            now = new_now
            pending = 0.0
            if evict_possible:
                while len(resident) >= capacity:
                    victim_id, _victim = resident.popitem(last=False)
                    swapped_valid.add(victim_id)
                    evicted += 1
            page = pages[page_id]
            if writes[index]:
                # First touch: there is no swap copy to invalidate.
                page.dirty = True
            resident[page_id] = page
    else:
        index = total

    env.now = now
    vm._pending_time = pending
    accesses = index - start
    demand_zero = (
        len(resident) - resident_before + evicted - prefetch_hits
    )
    stats = vm.stats
    stats.accesses += accesses
    stats.resident_hits += accesses - prefetch_hits - demand_zero
    stats.prefetch_hits += prefetch_hits
    stats.minor_faults += prefetch_hits + demand_zero
    if reason is not None:
        flat.note(reason)
    if accesses:
        flat.bulk_runs += 1
        flat.bulk_accesses += accesses
        if span is not None:
            tracer.end(span, accesses=accesses,
                       boundary=reason or "end-of-batch")
    return index, reason
