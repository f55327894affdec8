"""Local storage tiers: kernel swap slots, and batch spill areas.

Two very different ways a cascade uses local block storage:

* :class:`DiskSwapTier` — the full kernel swap path (Section V's Linux
  baseline): log-structured slot allocation, coalesced asynchronous
  writeback with dirty throttling, cluster readahead on swap-in;
* :class:`BatchSpillTier` — the bottom of the FastSwap/XMemPod
  cascade: whole compressed batches land in one merged device write
  when the tiers above are full, single pages read back on fault.
"""

from repro.hw.latency import PAGE_SIZE, CpuSpec
from repro.sim import Resource
from repro.tiers.base import Tier


class DiskSwapTier(Tier):
    """Swap to a local block device through the kernel swap path.

    Swap-out is *asynchronous*: kswapd writes dirty pages back in the
    background, so eviction only charges the submit cost — but the
    writeback stream occupies the disk, delaying the swap-in reads that
    do block the faulting task.  A bounded writeback window models the
    kernel's dirty throttling: eviction stalls once too many writes are
    in flight.
    """

    name = "disk"

    #: Effective swap readahead in pages.  The block layer's default
    #: device readahead is 128 KB (read_ahead_kb) = 32 pages, which is
    #: what sequential swap-in streams settle at.
    DEFAULT_READAHEAD = 32
    #: Contiguous swap-out pages merged into one writeback bio (the
    #: block layer merges adjacent requests; slots are log-allocated so
    #: eviction bursts are contiguous).
    WRITE_COALESCE_PAGES = 32
    #: In-flight writeback bios before eviction throttles.
    WRITEBACK_WINDOW = 8

    def __init__(self, node, readahead=DEFAULT_READAHEAD, cpu=None,
                 device=None):
        super().__init__()
        self.node = node
        self.env = node.env
        self.disk = device if device is not None else node.hdd
        self.readahead = readahead
        self.cpu = cpu or CpuSpec()
        self._slot_of = {}  # page_id -> slot index
        self._page_at = {}  # slot index -> Page
        self._free_slots = []
        self._next_slot = 0
        self._writeback = Resource(
            node.env, capacity=self.WRITEBACK_WINDOW, name="writeback"
        )
        self._pending_write_slots = []
        self.reads = 0
        self.writes = 0

    def _allocate_slot(self, page):
        # Log-structured slot allocation: the kernel's cluster allocator
        # hands out contiguous runs, so the writeback stream stays
        # sequential; freed slots are reclaimed lazily (the swap area is
        # provisioned much larger than the working set).
        slot = self._next_slot
        self._next_slot += 1
        self._slot_of[page.page_id] = slot
        self._page_at[slot] = page
        return slot

    def _release_slot(self, page_id):
        slot = self._slot_of.pop(page_id, None)
        if slot is not None:
            self._page_at.pop(slot, None)
            self._free_slots.append(slot)

    def put(self, page, nbytes):
        """Generator: submit the page for background writeback."""
        # Rewrites get a fresh slot at the log head (the old copy was
        # invalidated when the page was dirtied), keeping writeback
        # sequential.
        self._release_slot(page.page_id)
        slot = self._allocate_slot(page)
        self.cascade.record(page.page_id, self.name, None)
        if not self.env.advance(self.cpu.block_layer_overhead):
            yield self.env.timeout(self.cpu.block_layer_overhead)
        self._pending_write_slots.append(slot)
        self.cascade.pending_writes += 1
        self.writes += 1
        self.stats.puts.increment()
        self.stats.bytes_in.increment(PAGE_SIZE)
        if len(self._pending_write_slots) >= self.WRITE_COALESCE_PAGES:
            yield from self._submit_writeback()

    def drain(self):
        """Generator: push out any partially merged writeback bio."""
        if self._pending_write_slots:
            yield from self._submit_writeback()

    def _submit_writeback(self):
        slots, self._pending_write_slots = self._pending_write_slots, []
        self.cascade.pending_writes -= len(slots)
        window_slot = self._writeback.request()
        yield window_slot  # dirty throttling: stall when backlogged
        self.env.process(
            self._writeback_io(slots, window_slot), name="kswapd-write"
        )

    def _writeback_io(self, slots, window_slot):
        try:
            # Slots from one eviction burst are contiguous: one merged bio.
            yield from self.disk.write(min(slots) * PAGE_SIZE,
                                       len(slots) * PAGE_SIZE)
        finally:
            self._writeback.release(window_slot)

    def get(self, page, label, meta):
        """Generator: read the page (+ readahead cluster) from disk."""
        slot = self._slot_of[page.page_id]
        # Cluster readahead: the whole extent is read in one request
        # (one seek, sequential transfer); slots that still hold valid
        # pages land in the swap cache, holes are just wasted bytes.
        extra = [
            neighbour
            for offset in range(1, self.readahead)
            for neighbour in (self._page_at.get(slot + offset),)
            if neighbour is not None
        ]
        if not self.env.advance(self.cpu.block_layer_overhead):
            yield self.env.timeout(self.cpu.block_layer_overhead)
        yield from self.disk.read(slot * PAGE_SIZE,
                                  self.readahead * PAGE_SIZE)
        self.reads += 1
        self.stats.bytes_out.increment(self.readahead * PAGE_SIZE)
        return extra

    def forget(self, page_id, label, meta):
        self._release_slot(page_id)


class BatchSpillTier(Tier):
    """Merged batch writes to a local device below the remote tier.

    With an SSD device this is the XMemPod cascade's third level
    (shared memory → remote → SSD); with the HDD it is FastSwap's
    disk fallback.  The tier label doubles as its name ("ssd"/"disk").
    """

    def __init__(self, node, device, label, cpu=None):
        self.name = label
        super().__init__()
        self.node = node
        self.env = node.env
        self.device = device
        self.cpu = cpu or CpuSpec()
        self.writes = 0
        self.reads = 0

    def put(self, page, nbytes):
        yield from self.put_batch([(page, nbytes)], nbytes)

    def put_batch(self, batch, nbytes):
        """Generator: one merged device write for the whole batch."""
        offset = self.node.alloc_disk_span(nbytes)
        if not self.env.advance(self.cpu.block_layer_overhead):
            yield self.env.timeout(self.cpu.block_layer_overhead)
        yield from self.device.write(offset, nbytes)
        self.writes += 1
        for page, stored in batch:
            self.cascade.record(page.page_id, self.name, stored)
        self.stats.puts.increment(len(batch))
        self.stats.bytes_in.increment(nbytes)

    def get(self, page, label, meta):
        stored = meta
        if not self.env.advance(self.cpu.block_layer_overhead):
            yield self.env.timeout(self.cpu.block_layer_overhead)
        yield from self.device.read(self.node.alloc_disk_span(0), stored)
        yield from self.cascade.decompress(page)
        self.reads += 1
        self.stats.bytes_out.increment(stored)
        return []
