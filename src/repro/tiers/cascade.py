"""Composable memory-tier cascades (the unifying abstraction).

A :class:`TierCascade` is a :class:`~repro.swap.base.SwapBackend`
assembled from an ordered stack of :class:`~repro.tiers.base.Tier`
objects plus three pluggable policies:

* a **placement policy** — which tier a swap-out *starts* at (adaptive
  top-down, or a fixed distribution ratio pinning address blocks to a
  tier, the paper's FS-SM … FS-RDMA knob);
* an optional **compression layer** — multi-granularity compression
  charged once on the way out, decompression charged per fetched page
  on the way in (Section IV-H);
* a **failover policy** — what a tier does when its medium fails
  mid-operation (spill down the cascade, Hydra-style, or fail fast).

Spill-on-full is structural: a tier that raises
:class:`~repro.tiers.base.TierFull` passes the page to the next tier
down.  Demotions (LRU displacement, compressed-pool writeback) re-enter
the cascade *below* the demoting tier, so pages conserve: every
swapped-out, undiscarded page lives in exactly one tier at all times.
"""

from repro.core.errors import NoRemoteCapacity
from repro.hw.latency import PAGE_SIZE
from repro.swap.base import SwapBackend
from repro.tiers.base import Tier, TierFull


class CascadeFull(NoRemoteCapacity):
    """No tier in the cascade could hold the page."""


class AdaptivePlacement:
    """Top-down placement: always start at the fastest tier."""

    #: Whether the top tier may displace its LRU entry downward to make
    #: room instead of spilling the incoming page.
    displace_on_full = False

    def first_tier(self, cascade, page_id):
        return 0

    def describe(self):
        return "adaptive"


class FixedRatioPlacement:
    """Pin a fixed fraction of the address space to the top tier.

    Window-aligned blocks of the page-id space are hashed to one tier,
    so batching/PBS adjacency survives the split (per-page round-robin
    would shred every window).  ``fraction`` is the share served by the
    top tier: 1.0 = all top (FS-SM), 0.0 = all second tier (FS-RDMA).
    """

    #: Fixed-ratio mode keeps hot pages in the top tier by displacing
    #: its LRU entry downward, then retrying once.
    displace_on_full = True

    def __init__(self, fraction, window=8):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.window = max(1, window)

    def first_tier(self, cascade, page_id):
        block = page_id // self.window
        # Knuth multiplicative hash: stable across processes (unlike
        # built-in hash(), which is salted).
        bucket = (block * 2654435761) % 4294967296
        return 0 if bucket < self.fraction * 4294967296 else 1

    def describe(self):
        return "fixed-ratio {:.0%}".format(self.fraction)


class FailoverPolicy:
    """What a tier does when its medium fails mid-operation.

    Three orthogonal capabilities, read by the tiers as flags:

    * ``spill_on_failure`` — failed writes cascade to the next tier and
      failed reads fall back to the tier's backup medium instead of
      propagating the error;
    * ``read_from_replica`` — a replicated tier may serve a read from a
      surviving replica before considering the operation failed;
    * ``rebuild_on_failure`` — pages whose every copy died are
      re-placed lower in the cascade (from the backup) instead of
      lingering on the degraded path.
    """

    spill_on_failure = True
    read_from_replica = False
    rebuild_on_failure = False

    def describe(self):
        return "failover"


class DegradeToDisk(FailoverPolicy):
    """On a tier failure, route the operation down the cascade.

    Writes cascade to the next tier (a dead RDMA target degrades to
    SSD/disk); reads fall back to the tier's local backup medium.  This
    is the resilience behaviour every Section V system ships with.
    """

    def describe(self):
        return "degrade-to-disk"


class FailoverToReplica(DegradeToDisk):
    """Serve from surviving replicas first; degrade only past the last.

    The Hydra-style policy for replicated tiers: reads try the next
    live holder before touching the backup medium, writes that cannot
    reach a full replica set spill down rather than under-replicate.
    """

    read_from_replica = True

    def describe(self):
        return "failover-to-replica"


class EvictAndRebuild(FailoverToReplica):
    """Replica failover plus eager rebuild of wholly lost pages.

    When a page's last replica dies, the page is re-placed below the
    failed tier from the backup copy, so subsequent reads pay the lower
    tier's price once instead of the degraded path's price every time.
    """

    rebuild_on_failure = True

    def describe(self):
        return "evict-and-rebuild"


class SpillDownFailover(DegradeToDisk):
    """Deprecated name for :class:`DegradeToDisk` (kept one release)."""

    def describe(self):
        return "spill-down"


class FailFastFailover(FailoverPolicy):
    """Propagate tier failures to the caller (no degraded mode).

    Useful for experiments isolating a single tier's behaviour, and as
    the baseline against which replication/failover policies are
    measured.
    """

    spill_on_failure = False

    def describe(self):
        return "fail-fast"


class TierCascade(SwapBackend):
    """A swap backend composed from an ordered stack of tiers."""

    name = "cascade"

    def __init__(self, node, tiers, name=None, placement=None,
                 compression=None, failover=None, pbs=None):
        if not tiers:
            raise ValueError("a cascade needs at least one tier")
        self.node = node
        self.env = node.env
        self.tiers = list(tiers)
        if name is not None:
            self.name = name
        self.placement = placement or AdaptivePlacement()
        self.compression = compression
        self.failover = failover or SpillDownFailover()
        self.pbs = pbs
        #: page_id -> (label, meta): which tier holds each page, and the
        #: tier-private metadata needed to fetch it back.
        self._where = {}
        self._by_label = {}
        for index, tier in enumerate(self.tiers):
            tier.attach(self, index)
            for label in tier.labels:
                if label in self._by_label:
                    raise ValueError("duplicate tier label {!r}".format(label))
                self._by_label[label] = tier
        # Only tiers that override ``Tier.drain`` buffer writes; the
        # base drain yields nothing, so the barrier skips the rest.
        self._draining_tiers = [
            tier for tier in self.tiers if type(tier).drain is not Tier.drain
        ]
        #: Writes the draining tiers hold for :meth:`drain` to flush;
        #: each such tier counts its own in and out.
        self.pending_writes = 0
        if pbs is not None:
            pbs.attach(self)
        self.page_table = None  # set via bind_page_table (enables PBS)
        self._mmu_stats = None

    # -- location map -------------------------------------------------------

    def record(self, page_id, label, meta):
        """Note that ``page_id`` now lives under ``label`` (tier-called)."""
        self._where[page_id] = (label, meta)

    def location(self, page_id):
        """``(label, meta)`` of a page, or ``(None, None)`` if absent."""
        return self._where.get(page_id, (None, None))

    def pages_held(self):
        """page_id -> label for every page the cascade currently holds."""
        return {page_id: label for page_id, (label, _m) in self._where.items()}

    # -- SwapBackend contract -----------------------------------------------

    def setup(self):
        """Generator: initialize every tier, top to bottom."""
        for tier in self.tiers:
            yield from tier.setup()

    def swap_out(self, page):
        """Generator: compress (optional), then place down the cascade."""
        if self.compression is not None:
            stored = yield from self.compression.compress_out(page)
        else:
            stored = PAGE_SIZE
        self.forget(page.page_id)
        start = self.placement.first_tier(self, page.page_id)
        yield from self.place(page, stored, start)

    def place(self, page, stored, start=0):
        """Generator: store ``page`` in the first tier from ``start`` that
        takes it; spill-on-full walks the stack downward."""
        tracer = self.env.tracer
        for tier in self.tiers[start:]:
            began = self.env.now
            span = (
                tracer.begin(
                    "tier.put", tier=tier.name, page=page.page_id,
                    stored=stored,
                )
                if tracer.enabled else None
            )
            try:
                yield from tier.put(page, stored)
            except TierFull:
                # The un-ended span is simply dropped: refusals record a
                # tier.miss instant instead.
                tier.stats.spills.increment()
                if tracer.enabled:
                    tracer.instant(
                        "tier.miss", tier=tier.name, page=page.page_id,
                        stored=stored,
                    )
                continue
            tier.stats.put_latency.record(self.env.now - began)
            if span is not None:
                tracer.end(span)
                tracer.latency("tier", tier.name + ".put", self.env.now - began)
            return
        raise CascadeFull(
            "{}: no tier of [{}] could hold page {} ({} bytes)".format(
                self.name,
                ", ".join(tier.name for tier in self.tiers),
                page.page_id,
                stored,
            )
        )

    def place_batch(self, batch, nbytes, start=0):
        """Generator: store a whole batch in one tier (one merged write)."""
        tracer = self.env.tracer
        for tier in self.tiers[start:]:
            began = self.env.now
            try:
                yield from tier.put_batch(batch, nbytes)
            except TierFull:
                tier.stats.spills.increment(len(batch))
                if tracer.enabled:
                    tracer.instant(
                        "tier.miss", tier=tier.name, batch=len(batch),
                        stored=nbytes,
                    )
                continue
            tier.stats.put_latency.record(self.env.now - began)
            if tracer.enabled:
                tracer.latency("tier", tier.name + ".put", self.env.now - began)
            return
        raise CascadeFull(
            "{}: no tier below index {} could hold a {}-page batch".format(
                self.name, start, len(batch)
            )
        )

    def demote(self, page, stored, below):
        """Generator: push a displaced page to the tiers below ``below``."""
        tracer = self.env.tracer
        if not tracer.enabled:
            return self.place(page, stored, below.index + 1)
        return self._traced_demote(page, stored, below, tracer)

    def _traced_demote(self, page, stored, below, tracer):
        span = tracer.begin(
            "tier.demote", tier=below.name, page=page.page_id, stored=stored
        )
        yield from self.place(page, stored, below.index + 1)
        tracer.end(span)

    def swap_in(self, page):
        """Generator: fetch the page from whichever tier holds it."""
        try:
            label, meta = self._where[page.page_id]
        except KeyError:
            raise KeyError(
                "page {} not in {}".format(page.page_id, self.name)
            ) from None
        tier = self._by_label[label]
        began = self.env.now
        tracer = self.env.tracer
        span = (
            tracer.begin(
                "tier.hit", tier=tier.name, label=label, page=page.page_id
            )
            if tracer.enabled else None
        )
        extra = yield from tier.get(page, label, meta)
        if span is not None:
            tracer.end(span, prefetched=len(extra) if extra else 0)
            tracer.latency("tier", tier.name + ".get", self.env.now - began)
        tier.stats.get_latency.record(self.env.now - began)
        tier.stats.gets.increment()
        return extra or []

    def drain(self):
        """Generator: flush every tier's buffered writes, top to bottom."""
        for tier in self._draining_tiers:
            yield from tier.drain()

    def buffered(self):
        """True while any tier holds writes :meth:`drain` would flush."""
        return self.pending_writes > 0

    def discard(self, page):
        self.forget(page.page_id)

    def forget(self, page_id):
        """Invalidate the cascade's copy of ``page_id`` wherever it lives."""
        label, meta = self._where.pop(page_id, (None, None))
        if label is not None:
            tier = self._by_label[label]
            tier.forget(page_id, label, meta)
            tier.stats.discards.increment()

    # -- prefetch wiring ----------------------------------------------------

    def bind_page_table(self, pages_by_id, mmu_stats=None):
        """Give prefetching tiers access to page objects.

        ``mmu_stats`` (a :class:`~repro.swap.base.PagingStats`) enables
        the readahead-style feedback that scales the PBS window.
        """
        self.page_table = pages_by_id
        self._mmu_stats = mmu_stats

    def decompress(self, page):
        """Generator: charge decompression for a fetched page (no-op when
        the cascade stores raw pages)."""
        if self.compression is not None:
            yield from self.compression.decompress_in(page)

    # -- unified metrics registry -------------------------------------------

    def tier_breakdown(self):
        """Per-tier stats rows, top tier first (the metrics registry)."""
        return [tier.snapshot() for tier in self.tiers]

    def describe_stack(self):
        """Human-readable tier stack, e.g. ``sm -> remote -> disk``."""
        return " -> ".join(tier.name for tier in self.tiers)
