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

The placement map, crash repair, loss accounting and readmission live
in :class:`~repro.tiers.redundant.RedundantRemoteTier`: a replica set is
a ``k = 1`` placement whose ``r`` copies are its fragments.
"""

from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.net.retry import retrying
from repro.tiers.redundant import PlacementMap, RedundantRemoteTier

_TRANSIENT = (NetworkError, RemoteAccessError)


class ReplicatedRemoteTier(RedundantRemoteTier):
    """Write-all / read-one replication over peer-donated slab areas."""

    name = "replicated"

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
        if replication < 1:
            raise ValueError("replication must be >= 1")
        if write_protocol not in self.WRITE_PROTOCOLS:
            raise ValueError(
                "unknown write protocol {!r}; valid: {}".format(
                    write_protocol, ", ".join(self.WRITE_PROTOCOLS)
                )
            )
        super().__init__(
            node, directory, PlacementMap(1, replication - 1),
            slabs_per_target, reserve_tag, rng, tracker,
        )
        self.replication = replication
        #: Optional :class:`~repro.net.retry.RetryPolicy` on the read
        #: path (transient errors retried before the next replica).
        self.retry = retry
        self.write_protocol = write_protocol
        #: Version tags for the one-RTT in-place conflict check: each
        #: fan-out round stamps its targets with a fresh tag; finding a
        #: tag from an earlier incarnation of the page is a detected
        #: (and superseded) conflict.
        self._versions = {}
        self._version_counter = 0
        self.replica_fallbacks = 0
        #: Fabric rounds spent by committed puts: ``write-all`` pays
        #: one serialized TX-lane round per copy, ``one-rtt`` exactly
        #: one fan-out round per put.
        self.write_rounds = 0
        self.conflicts_detected = 0

    # -- setup ---------------------------------------------------------------

    def setup(self):
        """Generator: reserve areas and hook failure events; the one-RTT
        protocol also connects to every admitted peer."""
        yield from super().setup()
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
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        winners = yield from self._gather(
            targets, nbytes, True, "replicate:{}".format(page.page_id),
            key=page.page_id,
        )
        if len(winners) < len(targets):
            yield from self._spill(
                page, nbytes, winners,
                "replica write reached {}/{} targets".format(
                    len(winners), len(targets)
                ),
            )
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
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        try:
            yield from self._fanout_write(targets, nbytes)
        except _TRANSIENT:
            yield from self._spill(
                page, nbytes, (),
                "one-RTT replica round to {} failed".format(targets),
            )
            return
        reserved = []
        for target in targets:
            area = self.areas.get(target)
            if area is None:
                continue
            if not area.reserve(page.page_id, nbytes):
                # Arena-only: a fragmented target could not place the
                # copy.  The round delivers to all or none, so undo the
                # reservations and spill (uniform areas never refuse).
                yield from self._spill(
                    page, nbytes, reserved,
                    "one-RTT replica round to {} refused".format(targets),
                )
                return
            reserved.append(target)
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
        began = self.env.now
        yield from self._read_backup(
            "no live replica for page {}".format(page.page_id)
        )
        self.tracker.degraded_reads.increment()
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

    # -- failure and recovery handling ---------------------------------------

    def _repair_page(self, victim, page_id):
        """Generator: copy one orphaned page from a survivor to a spare."""
        label, stored = self.cascade.location(page_id)
        if label != self.name:
            return  # moved or discarded since the crash
        holders = self.map.holders(page_id)
        if len(holders) == self.replication:
            return  # re-placed in full since the crash
        survivors = [
            holder for holder in holders if not self.directory.is_down(holder)
        ]
        if not survivors:
            self.map.remove_page(page_id)
            self._record_lost([page_id])
            return
        target = self._pick_spare(stored, exclude=holders)
        if target is None:
            return  # stays under-replicated until a peer returns
        try:
            yield from self._one_sided(survivors[0], stored, write=False)
            yield from self._one_sided(target, stored, write=True)
        except _TRANSIENT:
            return
        # Re-verify before committing: the page may have been swapped
        # in (forgotten) or re-placed while the copy was in flight.
        area = self.areas.get(target)
        if (
            area is None
            or self.cascade.location(page_id)[0] != self.name
            or self.map.holders(page_id) != holders
            or not area.reserve(page_id, stored)
        ):
            return
        self.map.add_holder(page_id, target)
        self.tracker.pages_re_replicated.increment()

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
        for page_id in self.map.incomplete():
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
                        or len(holders) >= self.replication
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

    # -- reporting -----------------------------------------------------------

    def _scheme_columns(self):
        return {
            "replication": self.replication,
            "replica_fallbacks": self.replica_fallbacks,
            "rebuilds": self.rebuilds,
            "write_protocol": self.write_protocol,
            "write_rounds": self.write_rounds,
            "conflicts_detected": self.conflicts_detected,
            # Physical bytes per logical byte stored (r copies).
            "overhead_x": float(self.replication),
        }
