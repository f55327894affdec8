"""Cluster remote memory over RDMA, with batching and PBS.

The paper's cluster-level tier (Sections IV-C, IV-G): swap-outs
accumulate in a local send buffer and ship as one RDMA write per
window; faults on remote pages fetch a whole window of neighbours in
the same one-sided read (PBS).  Pages track through two labels:

* ``buffer`` — still staged locally awaiting a batch flush (a DRAM
  copy serves a fault);
* ``remote`` — shipped to a peer's reserved slab area.

A full cluster or a dead target cascades the *whole batch* down to the
next tier (one merged device write), which is what keeps the XMemPod
SSD tier and the HDD fallback cheap.
"""

from repro.core.errors import ControlTimeout
from repro.hw.latency import PAGE_SIZE
from repro.mem.allocator import AllocationError
from repro.mem.arena import make_allocator
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.tiers.base import Tier


class RemoteArea:
    """The client-side view of slab space reserved on one remote node.

    Historically a single used-byte counter — the idealized uniform
    model.  It is now a *keyed store* over a pluggable allocator
    (:func:`repro.mem.arena.make_allocator`): every page or fragment is
    reserved under a key and released by it, so when the cluster runs
    the ``arena`` policy the area models the real extent/run layout of
    the peer's pool — including the fragmentation that makes a page
    unplaceable despite ample raw free bytes.  The default ``uniform``
    policy reproduces the historical counter bit for bit.
    """

    __slots__ = ("node_id", "allocator", "policy", "name", "_env", "_held",
                 "_capacity", "_used")

    def __init__(self, node_id, capacity_bytes, policy="uniform", env=None,
                 name=None):
        if policy not in ("uniform", "arena"):
            raise ValueError("area policy must be 'uniform' or 'arena'")
        self.node_id = node_id
        self.policy = policy
        self.name = name or "area:{}".format(node_id)
        self._env = env
        self._held = {}  # key -> block handles (arena) or nbytes (uniform)
        self._capacity = int(capacity_bytes)
        self._used = 0
        self.allocator = (
            make_allocator("arena", capacity_bytes) if policy == "arena"
            else None
        )

    @property
    def capacity_bytes(self):
        return self._capacity

    @property
    def used_bytes(self):
        if self.allocator is not None:
            return self._capacity - self.allocator.free_bytes
        return self._used

    @property
    def free_bytes(self):
        return self.capacity_bytes - self.used_bytes

    def can_fit(self, nbytes):
        """Whether a reservation of ``nbytes`` should succeed.

        Uniform areas answer from the free counter (the historical
        check); arena areas answer from the free-extent structure, so
        fragmented areas stop attracting placements they would refuse.
        """
        if self.allocator is not None:
            return self.allocator.allocatable_bytes(nbytes) >= nbytes
        return self.free_bytes >= nbytes

    def holds(self, key):
        return key in self._held

    def reserve(self, key, nbytes):
        """Reserve ``nbytes`` under ``key``; False when it cannot fit.

        Uniform reservations never fail: the historical counter added
        blindly after a caller's own free-bytes check, overcommitting
        under racing writers, and that behaviour is preserved bit for
        bit.  Arena reservations go through the extent allocator and
        refuse when fragmentation leaves no usable space.
        """
        if key in self._held:
            raise ValueError(
                "{}: duplicate reservation {!r}".format(self.name, key)
            )
        if self.allocator is None:
            self._held[key] = nbytes
            self._used += nbytes
            return True
        try:
            blocks = self.allocator.allocate_entry(nbytes)
        except AllocationError:
            return False
        self._held[key] = blocks
        if self._env is not None:
            tracer = self._env.tracer
            if tracer.enabled:
                tracer.instant(
                    "alloc.reserve", store=self.name, key=key, nbytes=nbytes
                )
        return True

    def release(self, key):
        """Release the reservation under ``key``; returns its payload bytes
        (0 when the key is unknown — e.g. the area was rebuilt after a
        crash)."""
        held = self._held.pop(key, None)
        if held is None:
            return 0
        if self.allocator is None:
            self._used -= held
            return held
        payload = sum(block.payload_bytes for block in held)
        if self._env is not None:
            tracer = self._env.tracer
            if tracer.enabled:
                tracer.instant("alloc.free", store=self.name, key=key)
        self.allocator.free_entry(held)
        return payload

    def frag_stats(self):
        if self.allocator is not None:
            return self.allocator.frag_stats()
        from repro.mem.fragstats import FragmentationStats, build_histogram

        free = max(self.free_bytes, 0)
        return FragmentationStats(
            capacity_bytes=self._capacity,
            payload_bytes=self._used,
            live_bytes=self._used,
            free_bytes=free,
            metadata_bytes=0,
            largest_free_extent=free,
            allocatable_bytes=free,
            free_extent_histogram=build_histogram([free] if free else []),
        )


def area_policy(node):
    """The RemoteArea policy for a cluster config's ``alloc_policy``.

    Areas never modelled memcached slabs — anything but ``arena``
    keeps the historical uniform counter.
    """
    policy = getattr(getattr(node, "config", None), "alloc_policy", "slab")
    return "arena" if policy == "arena" else "uniform"


def reserve_area(tier, peer):
    """Generator: reserve up to ``tier.slabs_per_target`` whole slabs of
    ``peer``'s free receive pool for a remote tier (one carrying
    ``node``, ``directory``, ``reserve_tag`` and an ``areas`` map); True
    once ``tier.areas[peer]`` holds the new :class:`RemoteArea`."""
    node = tier.node
    slab_bytes = node.config.slab_bytes
    available = tier.directory.free_receive_bytes(peer)
    nbytes = min(
        tier.slabs_per_target * slab_bytes, (available // slab_bytes) * slab_bytes
    )
    if nbytes <= 0:
        return False
    key = (tier.reserve_tag, node.node_id, peer)
    try:
        reply = yield from node.rdmc.control_call(
            peer, {"op": "reserve", "key": key, "nbytes": nbytes}
        )
    except (ControlTimeout, NetworkError):
        return False
    if not reply.get("ok"):
        return False
    tier.areas[peer] = RemoteArea(
        peer,
        nbytes,
        policy=area_policy(node),
        env=tier.env,
        name="{}:{}->{}".format(tier.name, node.node_id, peer),
    )
    return True


class RemoteRdmaTier(Tier):
    """Batched one-sided RDMA to peer-donated slab areas."""

    name = "remote"

    #: Serving a page still sitting in the local send buffer: DRAM copy.
    BUFFER_HIT_TIME = 0.8e-6
    #: Per-page software cost on the remote path (work-request build +
    #: completion handling); batching amortizes the doorbell/latency but
    #: not this, which is what keeps node-level SM ahead of FS-RDMA.
    REMOTE_PER_PAGE_OVERHEAD = 1.2e-6

    def __init__(self, node, directory, window=8, slabs_per_target=24,
                 reserve_tag="fastswap-slab"):
        super().__init__()
        self.node = node
        self.env = node.env
        self.directory = directory
        self.window = window
        self.slabs_per_target = slabs_per_target
        self.reserve_tag = reserve_tag
        self.areas = {}  # node_id -> RemoteArea
        self._pending = []  # [(page, stored_bytes)] awaiting batch flush
        self._pending_bytes = 0
        self._flush_cursor = 0
        # Counters for reports and tests.
        self.batches = 0
        self.pages_out = 0
        self.reads = 0
        self.fallback_reads = 0

    @property
    def labels(self):
        return ("buffer", self.name)

    # -- setup ---------------------------------------------------------------

    def setup(self):
        """Generator: reserve remote slab areas on live group peers."""
        for peer in self.directory.peers_of(self.node.node_id):
            if not self.directory.is_down(peer):
                yield from reserve_area(self, peer)

    # -- swap-out path -------------------------------------------------------

    def put(self, page, nbytes):
        """Generator: stage the page in the send buffer; flush per window."""
        self._pending.append((page, nbytes))
        self._pending_bytes += nbytes
        self.cascade.pending_writes += 1
        self.cascade.record(page.page_id, "buffer", nbytes)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(nbytes)
        if len(self._pending) >= self.window:
            yield from self._flush_batch()

    def _flush_batch(self):
        """Ship the pending batch as one RDMA write to one target."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        nbytes, self._pending_bytes = self._pending_bytes, 0
        self.cascade.pending_writes -= len(batch)
        area = self._pick_area(nbytes)
        if area is not None and not self._reserve_batch(area, batch):
            # An arena-backed area refused the batch despite the
            # heuristic check: fragmentation made it unplaceable.
            area = None
        if area is None:
            # Cluster full: the compressed batch cascades down a tier.
            self.stats.spills.increment(len(batch))
            yield from self.cascade.place_batch(batch, nbytes, self.index + 1)
            return
        try:
            delay = self.REMOTE_PER_PAGE_OVERHEAD * len(batch)
            if not self.env.advance(delay):
                yield self.env.timeout(delay)
            yield from self._one_sided(area.node_id, nbytes, write=True)
        except (NetworkError, RemoteAccessError):
            # Target died mid-batch: cascade this batch down a tier.
            for page, _stored in batch:
                area.release(page.page_id)
            self.stats.failovers.increment(len(batch))
            if not self.cascade.failover.spill_on_failure:
                raise
            yield from self.cascade.place_batch(batch, nbytes, self.index + 1)
            return
        for page, stored in batch:
            self.cascade.record(page.page_id, self.name, (area.node_id, stored))
        self.batches += 1
        self.pages_out += len(batch)

    def _reserve_batch(self, area, batch):
        """Reserve every page of the batch on ``area``, all or nothing."""
        reserved = []
        for page, stored in batch:
            if not area.reserve(page.page_id, stored):
                for key in reserved:
                    area.release(key)
                return False
            reserved.append(page.page_id)
        return True

    def _pick_area(self, nbytes):
        live = [
            area
            for area in self.areas.values()
            if area.can_fit(nbytes)
            and not self.directory.is_down(area.node_id)
        ]
        if not live:
            return None
        area = live[self._flush_cursor % len(live)]
        self._flush_cursor += 1
        return area

    # -- swap-in path --------------------------------------------------------

    def get(self, page, label, meta):
        """Generator: buffer hit, or a (PBS-batched) one-sided read."""
        if label == "buffer":
            # Still staged locally: a DRAM copy suffices.
            yield self.env.timeout(self.BUFFER_HIT_TIME)
            return []
        target, stored = meta
        batch = [(page, stored)]
        pbs = self.cascade.pbs
        if pbs is not None:
            batch.extend(
                (neighbour, neighbour_meta[1])
                for neighbour, neighbour_meta in pbs.neighbours(
                    page.page_id, self.name,
                    match=lambda m: m[0] == target,
                )
            )
        nbytes = sum(s for _p, s in batch)
        try:
            delay = self.REMOTE_PER_PAGE_OVERHEAD * len(batch)
            if not self.env.advance(delay):
                yield self.env.timeout(delay)
            yield from self._one_sided(target, nbytes, write=False)
        except (NetworkError, RemoteAccessError):
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise
            # Remote gone: the asynchronous disk backup serves the page.
            yield from self.node.hdd.read(
                self.node.alloc_disk_span(0), PAGE_SIZE
            )
            self.fallback_reads += 1
            return []
        for fetched, _stored in batch:
            yield from self.cascade.decompress(fetched)
        self.reads += 1
        self.stats.bytes_out.increment(nbytes)
        if pbs is not None:
            pbs.note(len(batch) - 1)
        return [fetched for fetched, _stored in batch[1:]]

    # -- bookkeeping ---------------------------------------------------------

    def forget(self, page_id, label, meta):
        if label == "buffer":
            for index, (pending_page, stored) in enumerate(self._pending):
                if pending_page.page_id == page_id:
                    self._pending.pop(index)
                    self._pending_bytes -= stored
                    self.cascade.pending_writes -= 1
                    break
        else:
            target, _stored = meta
            area = self.areas.get(target)
            if area is not None:
                area.release(page_id)

    def drain(self):
        """Generator: flush any partially filled remote batch."""
        yield from self._flush_batch()

    def buffered(self):
        return bool(self._pending)
