"""The shared core of the redundant remote tiers (paper Section IV-D).

Replication and erasure coding sit on one spectrum (Hydra, arXiv
1910.09727): a page becomes ``k`` data fragments plus ``m`` redundant
ones on ``k + m`` distinct peers, and it survives while any ``k`` do.
A replica set of ``r`` copies is the ``k = 1`` case: each copy is one
fragment of a one-data-shard code with ``r - 1`` parity shards.

* :class:`PlacementMap` — the pure bookkeeping both schemes share
  (page -> ``{fragment index: node}``, node -> fragments,
  crash/repair transitions), simulator-free so the property tests can
  drive it through arbitrary failure schedules.
* :class:`RedundantRemoteTier` — the failure/recovery skeleton: target
  selection over the live peer areas, all-or-spill commits, crash
  handling (repair of degraded pages, loss accounting and rebuild from
  the backup), readmission of recovered peers with backoff, and
  release on ``forget``.  The subclasses
  (:class:`~repro.tiers.replicated.ReplicatedRemoteTier`,
  :class:`~repro.tiers.erasure.ErasureCodedRemoteTier`) supply the
  write and read paths, the per-page repair and the readmission
  top-up.
"""

from repro.hw.latency import PAGE_SIZE
from repro.metrics.recovery import RecoveryTracker
from repro.net.rdma import RemoteAccessError
from repro.net.retry import RetryPolicy
from repro.tiers.base import DisplacedPage, Tier, TierFull
from repro.tiers.remote import reserve_area


class PlacementMap:
    """Pure placement bookkeeping: which node holds which fragment.

    The invariants the property tests pin: every fragment index of a
    page has at most one holder, a page's fragments live on distinct
    nodes, and a page leaves the map only when fewer than
    ``data_shards`` fragments survive (:meth:`drop_node` reports it as
    lost) or it is removed outright.  A replica map is the
    ``data_shards = 1`` case.
    """

    def __init__(self, data_shards, parity_shards):
        if data_shards < 1 or parity_shards < 0:
            raise ValueError("need data_shards >= 1 and parity_shards >= 0")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        self._fragments = {}  # page_id -> {fragment index: node_id}
        self._by_node = {}  # node_id -> set of page_ids

    def __len__(self):
        return len(self._fragments)

    def __contains__(self, page_id):
        return page_id in self._fragments

    def fragments(self, page_id):
        return dict(self._fragments.get(page_id, ()))

    def holders(self, page_id):
        """The page's holders in placement order, then repair order."""
        return tuple(self._fragments.get(page_id, {}).values())

    def pages_on(self, node_id):
        return sorted(self._by_node.get(node_id, ()))

    def missing(self, page_id):
        held = self._fragments.get(page_id)
        if held is None:
            return []
        return [index for index in range(self.total_shards)
                if index not in held]

    def place(self, page_id, holders):
        """Record a full placement: ``holders[i]`` gets fragment ``i``."""
        holders = tuple(holders)
        if len(holders) != self.total_shards:
            raise ValueError(
                "a placement needs {} holders, got {}".format(
                    self.total_shards, len(holders)
                )
            )
        if len(set(holders)) != len(holders):
            raise ValueError("holders must be distinct nodes")
        self.remove_page(page_id)
        self._fragments[page_id] = dict(enumerate(holders))
        for node_id in holders:
            self._by_node.setdefault(node_id, set()).add(page_id)

    def set_fragment(self, page_id, index, node_id):
        """A repair rebuilt fragment ``index`` onto ``node_id``."""
        held = self._fragments.get(page_id)
        if held is None or not 0 <= index < self.total_shards:
            return False
        if index in held or node_id in held.values():
            return False  # never duplicate a fragment or double-load a node
        held[index] = node_id
        self._by_node.setdefault(node_id, set()).add(page_id)
        return True

    def add_holder(self, page_id, node_id):
        """A repair copied ``page_id`` onto ``node_id``: the copy is its
        lowest missing fragment (replicas are interchangeable)."""
        missing = self.missing(page_id)
        return bool(missing) and self.set_fragment(page_id, missing[0], node_id)

    def remove_page(self, page_id):
        """The page was discarded or moved out of the tier."""
        for node_id in self._fragments.pop(page_id, {}).values():
            pages = self._by_node.get(node_id)
            if pages is not None:
                pages.discard(page_id)

    def drop_node(self, node_id):
        """A holder died; returns ``(degraded, lost)`` page-id lists.

        Degraded pages lost a fragment but keep at least
        ``data_shards`` and should be repaired; lost pages fell below
        the threshold and leave the map entirely.
        """
        degraded, lost = [], []
        for page_id in sorted(self._by_node.pop(node_id, ())):
            held = self._fragments[page_id]
            (index,) = [i for i, holder in held.items() if holder == node_id]
            del held[index]
            if len(held) >= self.data_shards:
                degraded.append(page_id)
            else:
                self.remove_page(page_id)
                lost.append(page_id)
        return degraded, lost

    def incomplete(self):
        """Page ids currently missing at least one fragment."""
        return sorted(
            page_id
            for page_id, held in self._fragments.items()
            if len(held) < self.total_shards
        )


class RedundantRemoteTier(Tier):
    """Placement, crash repair and readmission over peer-donated areas.

    Subclasses define ``put``, ``get``, ``_repair_page(victim,
    page_id)``, ``_top_up(node_id)`` and ``_scheme_columns()``.
    """

    #: Per-page software cost on the remote path (work-request build +
    #: completion handling), charged once per operation.
    REMOTE_PER_PAGE_OVERHEAD = 1.2e-6

    #: Backoff applied while waiting for a recovered peer to finish
    #: re-registering its pools before re-admitting it as a target.
    READMIT_POLICY = RetryPolicy(
        max_attempts=6, base_delay=1e-4, multiplier=4.0, max_delay=0.05
    )

    #: Prefix of the ``repair:``/``rebuild:``/``readmit:`` process names
    #: (the trace tracks of the background work).
    PROCESS_PREFIX = ""

    def __init__(self, node, directory, placement, slabs_per_target,
                 reserve_tag, rng, tracker):
        super().__init__()
        peers = len(directory.peers_of(node.node_id))
        if peers < placement.total_shards:
            raise ValueError(
                "{}: {} fragments per page need {} distinct peers, but the "
                "group of {} has {}".format(
                    self.name, placement.total_shards, placement.total_shards,
                    node.node_id, peers,
                )
            )
        self.node = node
        self.env = node.env
        self.directory = directory
        self.map = placement
        self.slabs_per_target = slabs_per_target
        self.reserve_tag = reserve_tag
        self._rng = rng
        self.tracker = tracker or RecoveryTracker()
        self.tracker.clock = lambda: self.env.now
        self.areas = {}  # node_id -> RemoteArea
        self._listening = False
        self._repairs = []
        # Counters for reports and tests.
        self.reads = 0
        self.fallback_reads = 0
        self.rebuilds = 0

    # -- setup ---------------------------------------------------------------

    def setup(self):
        """Generator: reserve areas on live peers, hook failure events."""
        injector = getattr(self.directory, "injector", None)
        if injector is not None and not self._listening:
            injector.on_crash(self._on_node_crash)
            injector.on_recover(self._on_node_recover)
            self._listening = True
        for peer in self.directory.peers_of(self.node.node_id):
            if self.directory.is_down(peer):
                continue
            yield from reserve_area(self, peer)

    # -- placement -----------------------------------------------------------

    def _live_areas(self, nbytes, exclude=()):
        """Live areas with room for ``nbytes``, most free first."""
        return sorted(
            (
                area
                for area in self.areas.values()
                if area.node_id not in exclude
                and area.can_fit(nbytes)
                and not self.directory.is_down(area.node_id)
            ),
            key=lambda area: (-area.free_bytes, area.node_id),
        )

    def _select_targets(self, nbytes):
        """One holder per fragment; :class:`TierFull` when too few."""
        width = self.map.total_shards
        live = self._live_areas(nbytes)
        if len(live) < width:
            raise TierFull(
                "{}: fewer than {} live areas with {} free bytes".format(
                    self.name, width, nbytes
                )
            )
        return [area.node_id for area in live[:width]]

    def _pick_spare(self, nbytes, exclude):
        """The best live area outside ``exclude`` for a repair, or None."""
        live = self._live_areas(nbytes, set(exclude))
        return live[0].node_id if live else None

    def _spill(self, page, nbytes, written, reason):
        """Generator: never commit a short set — release the fragments
        in ``written`` and spill the page down the cascade (or raise
        ``reason`` when the failover policy does not spill)."""
        for target in written:
            area = self.areas.get(target)
            if area is not None:
                area.release(page.page_id)
        self.stats.failovers.increment()
        if not self.cascade.failover.spill_on_failure:
            raise RemoteAccessError(reason)
        yield from self.cascade.place(page, nbytes, self.index + 1)

    def _read_backup(self, reason):
        """Generator: the degraded read from the disk backup, for a page
        no remote fragment set can serve (or raise ``reason`` when the
        failover policy does not spill)."""
        self.stats.failovers.increment()
        if not self.cascade.failover.spill_on_failure:
            raise RemoteAccessError(reason)
        self.fallback_reads += 1
        yield from self.node.hdd.read(self.node.alloc_disk_span(0), PAGE_SIZE)

    # -- failure handling ----------------------------------------------------

    def _spawn(self, work, name):
        self._repairs.append(
            self.env.process(work, name=self.PROCESS_PREFIX + name)
        )

    def _on_node_crash(self, node_id):
        area = self.areas.pop(node_id, None)
        degraded, lost = self.map.drop_node(node_id)
        if area is None and not degraded and not lost:
            return
        self.tracker.begin_repair(node_id)
        if lost:
            self._record_lost(lost)
        self._spawn(self._repair(node_id, degraded), "repair:" + node_id)

    def _record_lost(self, page_ids):
        self.tracker.pages_lost.increment(len(page_ids))
        if self.cascade is not None and self.cascade.failover.rebuild_on_failure:
            self._spawn(
                self._rebuild(page_ids), "rebuild:{}".format(len(page_ids))
            )

    def _repair(self, victim, page_ids):
        """Generator: restore redundancy for the victim's degraded pages."""
        for page_id in page_ids:
            yield from self._repair_page(victim, page_id)
        self.tracker.complete_repair(victim)

    def _rebuild(self, page_ids):
        """Generator: re-place wholly lost pages below, from the backup."""
        for page_id in page_ids:
            label, stored = self.cascade.location(page_id)
            if label != self.name:
                continue
            yield from self.node.hdd.read(self.node.alloc_disk_span(0), PAGE_SIZE)
            yield from self.cascade.place(
                DisplacedPage(page_id, stored), stored, self.index + 1
            )
            self.rebuilds += 1

    # -- recovery handling ---------------------------------------------------

    def _on_node_recover(self, node_id):
        if node_id == self.node.node_id or node_id in self.areas:
            return
        if node_id not in self.directory.peers_of(self.node.node_id):
            return
        self._spawn(self._readmit(node_id), "readmit:" + node_id)

    def _readmit(self, node_id):
        """Generator: re-reserve an area on a recovered peer, with backoff,
        then top it up with fragments of incomplete pages."""
        policy = self.READMIT_POLICY
        for attempt in range(1, policy.max_attempts + 1):
            if self.directory.is_down(node_id):
                return
            admitted = yield from reserve_area(self, node_id)
            if admitted:
                self.tracker.nodes_recovered.increment()
                yield from self._top_up(node_id)
                return
            if attempt < policy.max_attempts:
                yield self.env.timeout(policy.delay(attempt, self._rng))

    # -- bookkeeping ---------------------------------------------------------

    def forget(self, page_id, label, meta):
        for holder in self.map.holders(page_id):
            area = self.areas.get(holder)
            if area is not None:
                area.release(page_id)
        self.map.remove_page(page_id)

    # -- reporting -----------------------------------------------------------

    def snapshot(self):
        row = self.stats.row()
        row.update(self.tracker.snapshot())
        row.update(self._scheme_columns())
        return row
