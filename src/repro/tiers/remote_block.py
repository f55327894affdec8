"""Remote memory behind a block device, as cascade tiers.

The NBDX / Infiniswap substrate (Section V baselines): every 4 KB page
pays the kernel block layer plus a per-request software cost on top of
the RDMA round trip — no batching, no compression.  Two tiers:

* :class:`RemoteBlockTier` — per-page one-sided reads/writes against
  slab areas reserved on peers, placed first-fit (one fixed server,
  NBDX) or with the power of two choices (Infiniswap);
* :class:`DiskBackupTier` — the asynchronous disk backup Infiniswap
  keeps: writes land on the local HDD without block-layer charge (the
  backup write was already amortized), reads pay the block path.
"""

from repro.core.errors import ControlTimeout, NoRemoteCapacity
from repro.hw.latency import PAGE_SIZE, CpuSpec
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.tiers.base import Tier, TierFull
from repro.tiers.remote import RemoteArea, area_policy


class RemoteBlockTier(Tier):
    """Per-page remote paging through the block layer."""

    name = "remote"

    def __init__(self, node, directory, backend_name, slabs_per_target=4,
                 extra_op_overhead=0.0, cpu=None, rng=None,
                 single_server=False, power_of_two=False):
        super().__init__()
        self.node = node
        self.env = node.env
        self.directory = directory
        self.backend_name = backend_name
        self.slabs_per_target = slabs_per_target
        self.extra_op_overhead = extra_op_overhead
        self.cpu = cpu or CpuSpec()
        self.rng = rng
        self.single_server = single_server
        self.power_of_two = power_of_two
        self.areas = {}  # node_id -> RemoteArea
        self.writes = 0
        self.reads = 0
        self.fallback_reads = 0

    # -- setup ---------------------------------------------------------------

    def _targets(self):
        peers = [
            peer
            for peer in self.directory.peers_of(self.node.node_id)
            if not self.directory.is_down(peer)
        ]
        if self.single_server:
            # All slabs on the single chosen server.
            return peers[:1]
        return peers

    def setup(self):
        """Generator: reserve slab space on the chosen remote targets."""
        slab_bytes = self.node.config.slab_bytes
        slabs = self.slabs_per_target
        if self.single_server:
            # One server hosts the whole device: scale the reservation up.
            slabs *= max(1, len(self.directory.peers_of(self.node.node_id)))
        for target in self._targets():
            desired = slabs * slab_bytes
            # Clamp to what the target actually donates (the group
            # leader would report this in the real protocol).
            available = self.directory.free_receive_bytes(target)
            nbytes = min(desired, (available // slab_bytes) * slab_bytes)
            if nbytes <= 0:
                continue
            key = ("{}-slab".format(self.backend_name),
                   self.node.node_id, target)
            try:
                reply = yield from self.node.rdmc.control_call(
                    target, {"op": "reserve", "key": key, "nbytes": nbytes}
                )
            except (NetworkError, ControlTimeout):
                continue
            if reply.get("ok"):
                self.areas[target] = RemoteArea(
                    target,
                    nbytes,
                    policy=area_policy(self.node),
                    env=self.env,
                    name="{}:{}->{}".format(
                        self.backend_name, self.node.node_id, target
                    ),
                )
        if not self.areas:
            raise NoRemoteCapacity(
                "{}: no remote slab space obtained".format(self.backend_name)
            )

    # -- placement ------------------------------------------------------------

    def _live_areas(self):
        return [
            area for area in self.areas.values()
            if not self.directory.is_down(area.node_id)
        ]

    def _place(self):
        viable = [
            area for area in self._live_areas()
            if area.can_fit(PAGE_SIZE)
        ]
        if not viable:
            return None
        if not self.power_of_two or len(viable) == 1 or self.rng is None:
            return viable[0]
        first, second = self.rng.sample(viable, 2)
        return first if first.free_bytes >= second.free_bytes else second

    # -- data path -------------------------------------------------------------

    def put(self, page, nbytes):
        """Generator: one block write = block layer + RDMA WRITE."""
        area = self._place()
        if area is None or not area.reserve(page.page_id, PAGE_SIZE):
            raise TierFull("no free slab area")
        self.cascade.record(page.page_id, self.name, area.node_id)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(PAGE_SIZE)
        delay = self.cpu.block_layer_overhead + self.extra_op_overhead
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        try:
            yield from self._one_sided(area.node_id, PAGE_SIZE, write=True)
            self.writes += 1
        except (NetworkError, RemoteAccessError):
            # Target died mid-write: degrade to the next tier down.
            self.stats.failovers.increment()
            self.cascade.forget(page.page_id)
            if not self.cascade.failover.spill_on_failure:
                raise
            yield from self.cascade.place(page, nbytes, self.index + 1)

    def get(self, page, label, meta):
        """Generator: one block read; disk backup on remote failure."""
        delay = self.cpu.block_layer_overhead + self.extra_op_overhead
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        try:
            yield from self._one_sided(meta, PAGE_SIZE, write=False)
            self.reads += 1
            self.stats.bytes_out.increment(PAGE_SIZE)
        except (NetworkError, RemoteAccessError):
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise
            # Asynchronous disk backup saves the day at disk cost.
            yield from self.node.hdd.read(
                self.node.alloc_disk_span(PAGE_SIZE), PAGE_SIZE
            )
            self.fallback_reads += 1
        return []

    def forget(self, page_id, label, meta):
        area = self.areas.get(meta)
        if area is not None:
            area.release(page_id)


class DiskBackupTier(Tier):
    """Infiniswap-style local disk backup below a remote tier."""

    name = "disk-backup"

    def __init__(self, node, op_overhead=0.0):
        super().__init__()
        self.node = node
        self.env = node.env
        self.op_overhead = op_overhead
        self.writes = 0
        self.reads = 0

    def put(self, page, nbytes):
        # The backup stream is asynchronous in the real system: no
        # block-layer charge on top of the raw device write.
        yield from self.node.hdd.write(
            self.node.alloc_disk_span(PAGE_SIZE), PAGE_SIZE
        )
        self.writes += 1
        self.cascade.record(page.page_id, self.name, None)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(PAGE_SIZE)

    def get(self, page, label, meta):
        yield self.env.timeout(self.op_overhead)
        yield from self.node.hdd.read(
            self.node.alloc_disk_span(PAGE_SIZE), PAGE_SIZE
        )
        self.reads += 1
        self.stats.bytes_out.increment(PAGE_SIZE)
        return []
