"""The memory-tier protocol: what one level of a swap cascade provides.

Every disaggregated-memory design in the paper is, at bottom, a choice
of *which tier serves a page*: local DRAM, the node-coordinated shared
pool, cluster remote memory over RDMA, NVM, SSD or disk.  A
:class:`Tier` wraps one such level behind a uniform contract so a
:class:`~repro.tiers.cascade.TierCascade` can compose an ordered stack
with spill-on-full, demotion and failover — instead of every swap
backend hand-rolling its own tier ordering.

A tier *stores pages, charges simulated time, and keeps stats*; it
never touches the resident set and never decides placement order — the
cascade does.  Placement metadata lives in the cascade's page-location
map: a tier receives back, on ``get``/``forget``, exactly the
``(label, meta)`` it recorded on ``put``.
"""

from repro.hw.latency import PAGE_SIZE
from repro.metrics.stats import Counter, RunningStats
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError


class TierFull(Exception):
    """The tier cannot take this page; the cascade should try the next."""


class TierStats:
    """Per-tier counters and latency stats for the unified registry.

    Built on :mod:`repro.metrics.stats` primitives; every cascade
    exposes one of these per tier through
    :meth:`~repro.tiers.cascade.TierCascade.tier_breakdown`, which is
    what experiment reports render.
    """

    __slots__ = (
        "tier",
        "puts",
        "gets",
        "bytes_in",
        "bytes_out",
        "spills",
        "failovers",
        "discards",
        "put_latency",
        "get_latency",
    )

    def __init__(self, tier):
        self.tier = tier
        self.puts = Counter("puts")
        self.gets = Counter("gets")
        self.bytes_in = Counter("bytes_in")
        self.bytes_out = Counter("bytes_out")
        #: Pages this tier refused (full/reject) that fell to a lower tier.
        self.spills = Counter("spills")
        #: Operations that hit the tier's failure path (dead peer, NIC error).
        self.failovers = Counter("failovers")
        self.discards = Counter("discards")
        self.put_latency = RunningStats()
        self.get_latency = RunningStats()

    def row(self):
        """One flat dict for table rendering / JSON reporting."""
        put = self.put_latency.snapshot()
        get = self.get_latency.snapshot()
        return {
            "tier": self.tier,
            "puts": self.puts.value,
            "gets": self.gets.value,
            "bytes_in": self.bytes_in.value,
            "bytes_out": self.bytes_out.value,
            "spills": self.spills.value,
            "failovers": self.failovers.value,
            "discards": self.discards.value,
            "put_mean_s": put["mean"] if put["count"] else None,
            "put_max_s": put["max"],
            "get_mean_s": get["mean"] if get["count"] else None,
            "get_max_s": get["max"],
        }


class Tier:
    """Contract one level of a swap cascade implements.

    Attributes
    ----------
    name:
        The tier's primary label, unique within its cascade.
    labels:
        Every page-location label the tier owns (a tier may track pages
        in more than one internal state, e.g. the remote tier's
        ``buffer`` vs ``remote``).
    """

    name = "abstract"

    def __init__(self):
        self.stats = TierStats(self.name)
        self.cascade = None
        self.index = None

    @property
    def labels(self):
        return (self.name,)

    def attach(self, cascade, index):
        """Wire the tier into its cascade (called by the cascade)."""
        self.cascade = cascade
        self.index = index

    # -- lifecycle -----------------------------------------------------------

    def setup(self):
        """Generator: one-time initialization (slab reservation etc.)."""
        return
        yield  # pragma: no cover

    def drain(self):
        """Generator: flush buffered writes (end-of-run barrier).

        A tier that overrides this adds each write it buffers to
        ``cascade.pending_writes`` and takes it off again when flushed
        or forgotten: that count is the cascade's O(1) ``buffered``.
        """
        return
        yield  # pragma: no cover

    # -- data path -----------------------------------------------------------

    def put(self, page, nbytes):
        """Generator: store ``page`` (``nbytes`` charged size).

        Must record the page's location via ``cascade.record`` on
        success and raise :class:`TierFull` when the tier cannot take
        the page (the cascade then tries the next tier down).
        """
        raise NotImplementedError

    def put_batch(self, batch, nbytes):
        """Generator: store a whole ``[(page, stored)]`` batch.

        The default stores pages one by one; tiers with a cheaper bulk
        path (one merged device write per batch) override this.
        """
        for page, stored in batch:
            yield from self.put(page, stored)

    def get(self, page, label, meta):
        """Generator: fetch ``page`` back; returns extra prefetched pages."""
        raise NotImplementedError

    def forget(self, page_id, label, meta):
        """Release the tier's copy of ``page_id`` (no simulated time)."""

    def _one_sided(self, target, nbytes, write):
        """Generator: one-sided RDMA write (or read) of ``nbytes`` to
        (from) ``target``'s receive region, for the remote tiers, which
        carry a ``node`` and a cluster ``directory``."""
        region = self.directory.receive_region_of(target)
        if region is None:
            raise RemoteAccessError("no region on {!r}".format(target))
        device = self.node.device
        qp = device.ready_qp(target)
        if qp is None:
            qp = yield from device.connect(self.directory.device_of(target))
        if write:
            yield from qp.write(region, nbytes)
        else:
            yield from qp.read(region, nbytes)

    def _gather(self, targets, nbytes, write, track, key=None):
        """Generator: :meth:`_one_sided` with all ``targets`` at once;
        returns those it succeeded with, in order.  A write also needs
        its target's area to take ``nbytes`` under ``key`` (a fragmented
        arena may refuse despite the selection-time check).

        Each transfer runs in a child process ``<track>:<target>``, or,
        when :meth:`_chain` allows, all run here as the chain those
        children would form (docs/SIMULATION.md, hot-path rules).
        """
        env = self.env
        landed = [False] * len(targets)
        chain = self._chain(targets, nbytes, write)
        if chain is None:
            yield env.all_of([
                env.process(
                    self._gather_one(target, nbytes, write, key, landed, index),
                    name="{}:{}".format(track, target),
                )
                for index, target in enumerate(targets)
            ])
        else:
            fabric = self.node.device.fabric
            env.advance(fabric.spec.per_message_overhead)
            me = self.node.node_id
            for target, qp in chain:
                src, dst = (me, target) if write else (target, me)
                # ``Fabric.chain`` proved every lane free and the end
                # strictly next, so each transfer is done in place.
                if not fabric.send_now(src, (dst,), nbytes):
                    raise RuntimeError(
                        "chain transfer {} -> {} refused".format(src, dst)
                    )
                qp.ops_completed += 1
                landed[targets.index(target)] = not write or self._reserve(
                    target, key, nbytes
                )
        return [target for target, ok in zip(targets, landed) if ok]

    def _chain(self, targets, nbytes, write):
        """``[(target, queue pair)]`` in the order :meth:`_gather`'s
        children would take the caller's NIC lane, if running them in
        place is exact: untraced (the children own the trace tracks),
        every target reached through a ready queue pair and a region it
        may access, no lane busy and the end strictly next
        (:meth:`Fabric.chain <repro.net.fabric.Fabric.chain>`,
        ``env.can_advance_to``).  Otherwise ``None``."""
        env = self.env
        if env.tracer.enabled:
            return None
        device = self.node.device
        qps = {}
        for target in targets:
            qps[target] = qp = device.ready_qp(target)
            region = self.directory.receive_region_of(target)
            if qp is None or region is None:
                return None
            try:
                qp.check_region(region, nbytes)
            except RemoteAccessError:
                return None
        fabric = device.fabric
        plan = fabric.chain(
            self.node.node_id, targets, nbytes, not write,
            env.now + fabric.spec.per_message_overhead,
        )
        if plan is None or not env.can_advance_to(plan[0]):
            return None
        return [(target, qps[target]) for target in plan[1]]

    def _gather_one(self, target, nbytes, write, key, landed, index):
        try:
            yield from self._one_sided(target, nbytes, write)
        except NetworkError:
            return
        landed[index] = not write or self._reserve(target, key, nbytes)

    def _reserve(self, target, key, nbytes):
        area = self.areas.get(target)
        return area is None or area.reserve(key, nbytes)

    # -- reporting -----------------------------------------------------------

    def snapshot(self):
        """The tier's stats row for the cascade-wide breakdown."""
        return self.stats.row()


class DisplacedPage:
    """Stand-in for a page displaced from a tier whose object is gone.

    Demotions (SM LRU displacement, compressed-pool writeback) move
    pages whose :class:`~repro.mem.page.Page` object the tier never
    held — only identity and charged size survive the move.
    """

    __slots__ = ("page_id", "size", "dirty")

    def __init__(self, page_id, size=PAGE_SIZE):
        self.page_id = page_id
        self.size = size
        self.dirty = True
