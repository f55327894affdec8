"""Replicated cluster remote memory (paper Section IV-D).

"The failure of one machine can cause the failure of many others" —
the resilience answer the paper sketches (and Hydra develops) is
replication across memory servers.  :class:`ReplicatedRemoteTier`
implements it on the cascade contract:

* **write-all** — a swap-out is written to ``replication`` live peer
  areas in parallel and committed only when *every* copy lands; a
  write that cannot reach a full replica set spills down the cascade
  instead of accepting under-replication (so a page in this tier
  always starts with ``r`` holders);
* **read-one** — with ``W = r`` the read quorum is one: a fault is
  served by the first live holder, falling over to the next replica
  (per the failover policy) and only past the last to the degraded
  disk-backup path;
* **re-replication** — a crash orphans the victim's copies; a repair
  process copies each orphaned page from a surviving holder to a new
  area, and recovered nodes are re-admitted (fresh area reservation,
  with backoff) and topped up with under-replicated pages in merged
  per-source batches (one read and one write per batch, not per page).

The write path is selectable by policy (``write_protocol``):
``"write-all"`` issues one RDMA WRITE per copy — the copies run in
parallel but serialize on the sender's TX lane, so a put costs ~``r``
wire rounds; ``"one-rtt"`` is the SWARM-style single-round variant —
queue pairs are pre-connected at setup and a put is a single fabric
fan-out round (one doorbell, one ``net.send``) carrying a version tag
each target compares in place, so a stale earlier incarnation of the
page is detected and superseded with no extra round and no rollback
(a round that cannot reach every target delivers nothing and spills).

:class:`ReplicaMap` is the pure bookkeeping core (page -> holders,
holder -> pages, failure/repair transitions) — separated so the
property tests can drive it through arbitrary failure schedules
without a simulator in the loop.
"""

from repro.hw.latency import PAGE_SIZE
from repro.metrics.recovery import RecoveryTracker
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.net.retry import RetryPolicy, retrying
from repro.tiers.base import DisplacedPage, Tier, TierFull
from repro.tiers.remote import reserve_area

_TRANSIENT = (NetworkError, RemoteAccessError)


class ReplicaMap:
    """Pure replica bookkeeping: which nodes hold which page.

    All mutation goes through four transitions — :meth:`place`,
    :meth:`add_holder`, :meth:`remove_page` and :meth:`drop_node` — so
    the invariant "a page is lost only when its last holder drops" is
    enforced in one small, simulator-free class.
    """

    def __init__(self, factor):
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.factor = factor
        self._holders = {}  # page_id -> tuple of node ids
        self._by_node = {}  # node_id -> set of page_ids

    def __len__(self):
        return len(self._holders)

    def __contains__(self, page_id):
        return page_id in self._holders

    def holders(self, page_id):
        return self._holders.get(page_id, ())

    def pages_on(self, node_id):
        return sorted(self._by_node.get(node_id, ()))

    def place(self, page_id, holders):
        """Record a fresh placement (replaces any previous holders)."""
        holders = tuple(dict.fromkeys(holders))
        if not holders:
            raise ValueError("a placement needs at least one holder")
        self.remove_page(page_id)
        self._holders[page_id] = holders
        for node_id in holders:
            self._by_node.setdefault(node_id, set()).add(page_id)

    def add_holder(self, page_id, node_id):
        """A repair copied ``page_id`` onto ``node_id``."""
        current = self._holders.get(page_id)
        if current is None or node_id in current:
            return
        self._holders[page_id] = current + (node_id,)
        self._by_node.setdefault(node_id, set()).add(page_id)

    def remove_page(self, page_id):
        """The page was discarded or moved out of the tier."""
        for node_id in self._holders.pop(page_id, ()):
            pages = self._by_node.get(node_id)
            if pages is not None:
                pages.discard(page_id)

    def drop_node(self, node_id):
        """A holder died; returns ``(orphans, lost)`` page-id lists.

        Orphans keep at least one live holder and should be
        re-replicated; lost pages had their last copy on the victim and
        leave the map entirely.
        """
        orphans, lost = [], []
        for page_id in sorted(self._by_node.pop(node_id, ())):
            remaining = tuple(
                holder for holder in self._holders[page_id] if holder != node_id
            )
            if remaining:
                self._holders[page_id] = remaining
                orphans.append(page_id)
            else:
                del self._holders[page_id]
                lost.append(page_id)
        return orphans, lost

    def under_replicated(self, factor=None):
        """Page ids currently holding fewer than ``factor`` copies."""
        factor = self.factor if factor is None else factor
        return sorted(
            page_id
            for page_id, holders in self._holders.items()
            if len(holders) < factor
        )


class ReplicatedRemoteTier(Tier):
    """Write-all / read-one replication over peer-donated slab areas."""

    name = "replicated"

    #: Per-page software cost on the remote path (work-request build +
    #: completion handling), charged once per operation.
    REMOTE_PER_PAGE_OVERHEAD = 1.2e-6

    #: Backoff applied while waiting for a recovered peer to finish
    #: re-registering its pools before re-admitting it as a target.
    READMIT_POLICY = RetryPolicy(
        max_attempts=6, base_delay=1e-4, multiplier=4.0, max_delay=0.05
    )

    #: Largest merged transfer a readmission top-up batch issues (stays
    #: within one slab's worth of any receive region).
    TOP_UP_BATCH_BYTES = 1 << 20

    #: Selectable write protocols (see the module docstring).
    WRITE_PROTOCOLS = ("write-all", "one-rtt")

    def __init__(
        self,
        node,
        directory,
        replication=3,
        slabs_per_target=24,
        reserve_tag="replica-slab",
        retry=None,
        rng=None,
        tracker=None,
        write_protocol="write-all",
    ):
        super().__init__()
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if write_protocol not in self.WRITE_PROTOCOLS:
            raise ValueError(
                "unknown write protocol {!r}; valid: {}".format(
                    write_protocol, ", ".join(self.WRITE_PROTOCOLS)
                )
            )
        self.node = node
        self.env = node.env
        self.directory = directory
        self.replication = replication
        self.slabs_per_target = slabs_per_target
        self.reserve_tag = reserve_tag
        #: Optional :class:`~repro.net.retry.RetryPolicy` on the read
        #: path (transient errors retried before the next replica).
        self.retry = retry
        self._rng = rng
        self.tracker = tracker or RecoveryTracker()
        self.tracker.clock = lambda: self.env.now
        self.map = ReplicaMap(replication)
        self.areas = {}  # node_id -> RemoteArea
        self.write_protocol = write_protocol
        self._listening = False
        self._repairs = []
        #: Version tags for the one-RTT in-place conflict check: each
        #: fan-out round stamps its targets with a fresh tag; finding a
        #: tag from an earlier incarnation of the page is a detected
        #: (and superseded) conflict.
        self._versions = {}
        self._version_counter = 0
        # Counters for reports and tests.
        self.reads = 0
        self.replica_fallbacks = 0
        self.fallback_reads = 0
        self.rebuilds = 0
        #: Fabric rounds spent by committed puts: ``write-all`` pays
        #: one serialized TX-lane round per copy, ``one-rtt`` exactly
        #: one fan-out round per put.
        self.write_rounds = 0
        self.conflicts_detected = 0

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
        if self.write_protocol == "one-rtt":
            # The one-RTT protocol pays connection setup here, once,
            # so a put is a single fan-out round on the data plane.
            for peer in sorted(self.areas):
                try:
                    yield from self.node.device.connect(
                        self.directory.device_of(peer)
                    )
                except _TRANSIENT:
                    continue

    # -- swap-out path (write-all) -------------------------------------------

    def put(self, page, nbytes):
        """Generator: write ``replication`` copies in parallel, or spill."""
        if self.write_protocol == "one-rtt":
            yield from self._put_one_rtt(page, nbytes)
            return
        targets = self._select_targets(nbytes)
        if targets is None:
            raise TierFull(
                "{}: fewer than {} live areas with {} free bytes".format(
                    self.name, self.replication, nbytes
                )
            )
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        winners = yield from self._gather(
            targets, nbytes, True, "replicate:{}".format(page.page_id),
            key=page.page_id,
        )
        if len(winners) < len(targets):
            # Partial failure: roll back, never commit under-replicated.
            for target in winners:
                area = self.areas.get(target)
                if area is not None:
                    area.release(page.page_id)
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise RemoteAccessError(
                    "replica write reached {}/{} targets".format(
                        len(winners), len(targets)
                    )
                )
            yield from self.cascade.place(page, nbytes, self.index + 1)
            return
        self.map.place(page.page_id, targets)
        self.cascade.record(page.page_id, self.name, nbytes)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(nbytes * len(targets))
        self.write_rounds += len(targets)

    def _put_one_rtt(self, page, nbytes):
        """Generator: one fan-out round to every target, or spill.

        There is no rollback round: the fan-out delivers to all targets
        or to none (a mid-flight endpoint failure loses the whole
        round), and conflicts with an earlier incarnation of the page
        are detected in place via the version tag the round carries.
        """
        targets = self._select_targets(nbytes)
        if targets is None:
            raise TierFull(
                "{}: fewer than {} live areas with {} free bytes".format(
                    self.name, self.replication, nbytes
                )
            )
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        try:
            yield from self._fanout_write(targets, nbytes)
        except _TRANSIENT:
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise RemoteAccessError(
                    "one-RTT replica round to {} failed".format(targets)
                )
            yield from self.cascade.place(page, nbytes, self.index + 1)
            return
        reserved = []
        refused = False
        for target in targets:
            area = self.areas.get(target)
            if area is None:
                continue
            if area.reserve(page.page_id, nbytes):
                reserved.append(area)
            else:
                # Arena-only: a fragmented target could not place the
                # copy.  The round delivers to all or none, so undo the
                # reservations and spill (uniform areas never refuse).
                refused = True
                break
        if refused:
            for area in reserved:
                area.release(page.page_id)
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise RemoteAccessError(
                    "one-RTT replica round to {} refused".format(targets)
                )
            yield from self.cascade.place(page, nbytes, self.index + 1)
            return
        if page.page_id in self._versions:
            # A target still held the tag of an earlier incarnation of
            # this page: detected by the in-place comparison, counted,
            # and superseded by this round's tag — no second round.
            self.conflicts_detected += 1
        self._versions[page.page_id] = self._version_counter
        self._version_counter += 1
        self.map.place(page.page_id, targets)
        self.cascade.record(page.page_id, self.name, nbytes)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(nbytes * len(targets))
        self.write_rounds += 1

    def _fanout_write(self, targets, nbytes):
        """Generator: a single doorbell replicating to every target."""
        for target in targets:
            if self.directory.receive_region_of(target) is None:
                raise RemoteAccessError("no region on {!r}".format(target))
        fabric = self.node.device.fabric
        overhead = fabric.spec.per_message_overhead
        if not self.env.advance(overhead):
            yield self.env.timeout(overhead)
        yield from fabric.fanout(self.node.node_id, targets, nbytes)

    def _select_targets(self, nbytes):
        live = sorted(
            (
                area
                for area in self.areas.values()
                if area.can_fit(nbytes)
                and not self.directory.is_down(area.node_id)
            ),
            key=lambda area: (-area.free_bytes, area.node_id),
        )
        if len(live) < self.replication:
            return None
        return [area.node_id for area in live[: self.replication]]

    # -- swap-in path (read-one) ---------------------------------------------

    def get(self, page, label, meta):
        """Generator: first live holder serves; degrade past the last."""
        stored = meta
        holders = list(self.map.holders(page.page_id))
        if not self.cascade.failover.read_from_replica:
            holders = holders[:1]
        for position, holder in enumerate(holders):
            if self.directory.is_down(holder):
                continue
            try:
                if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
                    yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
                yield from self._read_copy(holder, stored)
            except _TRANSIENT:
                self.stats.failovers.increment()
                continue
            yield from self.cascade.decompress(page)
            self.reads += 1
            if position:
                self.replica_fallbacks += 1
            self.stats.bytes_out.increment(stored)
            return []
        # Every replica is gone or unreachable: the degraded path.
        self.stats.failovers.increment()
        if not self.cascade.failover.spill_on_failure:
            raise RemoteAccessError(
                "no live replica for page {}".format(page.page_id)
            )
        self.tracker.degraded_reads.increment()
        self.fallback_reads += 1
        began = self.env.now
        yield from self.node.hdd.read(self.node.alloc_disk_span(0), PAGE_SIZE)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.latency(
                "tier", self.name + ".read.degraded", self.env.now - began
            )
        return []

    def _read_copy(self, holder, stored):
        if self.retry is None:
            yield from self._one_sided(holder, stored, write=False)
        else:
            yield from retrying(
                self.env,
                self.retry,
                lambda: self._one_sided(holder, stored, write=False),
                retry_on=_TRANSIENT,
                rng=self._rng,
            )

    # -- failure handling ----------------------------------------------------

    def _on_node_crash(self, node_id):
        area = self.areas.pop(node_id, None)
        orphans, lost = self.map.drop_node(node_id)
        if area is None and not orphans and not lost:
            return
        self.tracker.begin_repair(node_id)
        if lost:
            self._record_lost(lost)
        self._repairs.append(
            self.env.process(
                self._repair(node_id, orphans), name="repair:" + node_id
            )
        )

    def _record_lost(self, page_ids):
        self.tracker.pages_lost.increment(len(page_ids))
        if self.cascade is not None and self.cascade.failover.rebuild_on_failure:
            self._repairs.append(
                self.env.process(
                    self._rebuild(page_ids), name="rebuild:{}".format(len(page_ids))
                )
            )

    def _repair(self, node_id, orphans):
        """Generator: restore redundancy for the victim's orphans."""
        for page_id in orphans:
            label, meta = self.cascade.location(page_id)
            if label != self.name:
                continue  # moved or discarded since the crash
            stored = meta
            holders = self.map.holders(page_id)
            survivors = [
                holder for holder in holders if not self.directory.is_down(holder)
            ]
            if not survivors:
                self.map.remove_page(page_id)
                self._record_lost([page_id])
                continue
            target = self._pick_repair_target(stored, exclude=holders)
            if target is None:
                continue  # stays under-replicated until a peer returns
            try:
                yield from self._one_sided(survivors[0], stored, write=False)
                yield from self._one_sided(target, stored, write=True)
            except _TRANSIENT:
                continue
            # Re-verify before committing: the page may have been swapped
            # in (forgotten) or re-placed while the copy was in flight.
            area = self.areas.get(target)
            if (
                area is None
                or self.cascade.location(page_id)[0] != self.name
                or self.map.holders(page_id) != holders
                or not area.reserve(page_id, stored)
            ):
                continue
            self.map.add_holder(page_id, target)
            self.tracker.pages_re_replicated.increment()
        self.tracker.complete_repair(node_id)

    def _rebuild(self, page_ids):
        """Generator: re-place wholly lost pages below, from the backup."""
        for page_id in page_ids:
            label, meta = self.cascade.location(page_id)
            if label != self.name:
                continue
            stored = meta
            yield from self.node.hdd.read(self.node.alloc_disk_span(0), PAGE_SIZE)
            yield from self.cascade.place(
                DisplacedPage(page_id, stored), stored, self.index + 1
            )
            self.rebuilds += 1

    def _pick_repair_target(self, nbytes, exclude=()):
        exclude = set(exclude)
        live = sorted(
            (
                area
                for area in self.areas.values()
                if area.node_id not in exclude
                and area.can_fit(nbytes)
                and not self.directory.is_down(area.node_id)
            ),
            key=lambda area: (-area.free_bytes, area.node_id),
        )
        return live[0].node_id if live else None

    # -- recovery handling ---------------------------------------------------

    def _on_node_recover(self, node_id):
        if node_id == self.node.node_id or node_id in self.areas:
            return
        if node_id not in self.directory.peers_of(self.node.node_id):
            return
        self._repairs.append(
            self.env.process(self._readmit(node_id), name="readmit:" + node_id)
        )

    def _readmit(self, node_id):
        """Generator: re-reserve an area on a recovered peer, with backoff,
        then top it up with under-replicated pages."""
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

    def _top_up(self, node_id):
        """Generator: batch-copy under-replicated pages onto the peer.

        Pages are grouped by surviving source holder and shipped as
        merged transfers — one read from the source and one write to
        the recovered node per batch — instead of a round trip per
        page, so readmission recovery time scales with bytes moved,
        not page count.  Batches cap at :attr:`TOP_UP_BATCH_BYTES`;
        bookkeeping is re-verified per page after each batch lands
        (the cluster kept running while the batch flew).
        """
        area = self.areas.get(node_id)
        if area is None or self.directory.is_down(node_id):
            return
        groups = {}  # source holder -> [(page_id, stored)]
        budget = area.free_bytes
        for page_id in self.map.under_replicated():
            label, meta = self.cascade.location(page_id)
            if label != self.name:
                continue
            stored = meta
            holders = self.map.holders(page_id)
            if node_id in holders or stored > budget:
                continue
            survivors = [
                holder for holder in holders if not self.directory.is_down(holder)
            ]
            if not survivors:
                continue
            groups.setdefault(survivors[0], []).append((page_id, stored))
            budget -= stored
        for source in sorted(groups):
            for batch in self._chunk_batches(groups[source]):
                total = sum(stored for _page_id, stored in batch)
                try:
                    yield from self._one_sided(source, total, write=False)
                    yield from self._one_sided(node_id, total, write=True)
                except _TRANSIENT:
                    continue
                area = self.areas.get(node_id)
                if area is None or self.directory.is_down(node_id):
                    return
                for page_id, stored in batch:
                    label, _meta = self.cascade.location(page_id)
                    if label != self.name:
                        continue  # moved or discarded mid-flight
                    holders = self.map.holders(page_id)
                    if (
                        node_id in holders
                        or source not in holders
                        or len(holders) >= self.map.factor
                        or not area.can_fit(stored)
                        or not area.reserve(page_id, stored)
                    ):
                        continue
                    self.map.add_holder(page_id, node_id)
                    self.tracker.pages_re_replicated.increment()

    def _chunk_batches(self, pages):
        """Split ``[(page_id, stored)]`` at the merged-transfer cap."""
        batch, batch_bytes = [], 0
        for page_id, stored in pages:
            if batch and batch_bytes + stored > self.TOP_UP_BATCH_BYTES:
                yield batch
                batch, batch_bytes = [], 0
            batch.append((page_id, stored))
            batch_bytes += stored
        if batch:
            yield batch

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
        row.update(
            {
                "replication": self.replication,
                "replica_fallbacks": self.replica_fallbacks,
                "rebuilds": self.rebuilds,
                "write_protocol": self.write_protocol,
                "write_rounds": self.write_rounds,
                "conflicts_detected": self.conflicts_detected,
                # Physical bytes per logical byte stored (r copies).
                "overhead_x": float(self.replication),
            }
        )
        return row
