"""The node-coordinated shared memory pool (paper Sections III, IV-B, IV-F).

Every virtual server on a node donates a configurable x% of its
allocated memory; the node manager coordinates the resulting pool and
serves put/get requests from any co-hosted server *at DRAM speed* —
this is the paper's central node-level disaggregation argument.

The pool is slab-allocated (so compressed pages of different
granularities pack well), tracks LRU order for eviction toward the
cluster level, and charges shared-memory copy time for every operation.
"""

from collections import OrderedDict

from repro.mem.allocator import AllocationError, SlabAllocator
from repro.mem.arena import make_allocator


class SharedSlot:
    """A stored entry: where one data item lives in the pool."""

    __slots__ = ("key", "chunks", "nbytes")

    def __init__(self, key, chunks, nbytes):
        self.key = key
        self.chunks = chunks
        self.nbytes = nbytes


class PoolFull(Exception):
    """The pool cannot hold the entry even after reclaiming free slabs."""


class SharedMemoryPool:
    """A per-node shared memory pool assembled from server donations."""

    DEFAULT_SIZE_CLASSES = (512, 1024, 2048, 4096)

    def __init__(self, env, spec, size_classes=None, slab_bytes=None,
                 name="shm", policy="slab"):
        self.env = env
        self.spec = spec
        self.name = name
        self.policy = policy
        self.size_classes = tuple(size_classes or self.DEFAULT_SIZE_CLASSES)
        self.slab_bytes = slab_bytes or SlabAllocator.DEFAULT_SLAB_BYTES
        self.donations = {}
        self._allocator = make_allocator(
            policy, 0, size_classes=self.size_classes,
            slab_bytes=self.slab_bytes,
        )
        # Only arena-backed pools narrate allocation (trace stability).
        self._traced = policy == "arena"
        self._entries = OrderedDict()  # key -> SharedSlot, LRU order
        self.puts = 0
        self.gets = 0
        self.evictions = 0

    # -- donations ---------------------------------------------------------

    @property
    def capacity_bytes(self):
        return self._allocator.capacity_bytes

    @property
    def used_bytes(self):
        return self._allocator.stored_chunk_bytes

    @property
    def free_bytes(self):
        return self._allocator.free_bytes

    def allocatable_bytes(self, request=None):
        """Bytes actually satisfiable at the ``request`` grain."""
        return self._allocator.allocatable_bytes(request)

    def frag_stats(self):
        """The allocator's :class:`FragmentationStats` snapshot."""
        return self._allocator.frag_stats()

    def compact(self):
        """Defragment the backing allocator; returns the bytes copied."""
        tracer = self.env.tracer
        if not (self._traced and tracer.enabled):
            return self._allocator.compact()
        live = self._allocator.live_bytes
        span = tracer.begin(
            "alloc.compact", store=self.name, live_before=live
        )
        moved = self._allocator.compact()
        tracer.end(
            span,
            live_after=self._allocator.live_bytes,
            moved_bytes=moved,
        )
        return moved

    def donate(self, server_id, nbytes):
        """Add ``nbytes`` from ``server_id`` to the pool."""
        if nbytes < 0:
            raise ValueError("donation must be >= 0")
        self.donations[server_id] = self.donations.get(server_id, 0) + nbytes
        self._rebuild_capacity()

    def retract(self, server_id, nbytes):
        """Withdraw part of a server's donation (e.g. ballooning it back).

        Retracting below current usage is allowed — the allocator keeps
        existing entries but refuses new ones until usage drops.
        """
        current = self.donations.get(server_id, 0)
        if nbytes > current:
            raise ValueError("retracting more than donated")
        self.donations[server_id] = current - nbytes
        self._rebuild_capacity()

    def _rebuild_capacity(self):
        target_slabs = sum(self.donations.values()) // self.slab_bytes
        current = self._allocator.total_slabs
        if target_slabs > current:
            self._allocator.grow(target_slabs - current)
        elif target_slabs < current:
            # Only idle slabs can be taken away; busy slabs shrink later
            # as entries drain.
            self._allocator.shrink(current - target_slabs)

    # -- data path ---------------------------------------------------------

    def op_time(self, nbytes):
        """Shared-memory access time: software overhead + DRAM-speed copy."""
        return self.spec.op_overhead + nbytes / self.spec.copy_bandwidth

    def contains(self, key):
        return key in self._entries

    def try_reserve(self, key, nbytes):
        """Allocate space for ``key`` without charging time (planning step).

        Returns the :class:`SharedSlot` or ``None`` if the pool is full
        for that size.
        """
        if key in self._entries:
            raise KeyError("duplicate key {!r}".format(key))
        try:
            chunks = self._allocator.allocate_entry(nbytes)
        except AllocationError:
            return None
        if self._traced and self.env.tracer.enabled:
            self.env.tracer.instant(
                "alloc.reserve", store=self.name, key=key, nbytes=nbytes
            )
        slot = SharedSlot(key, chunks, nbytes)
        self._entries[key] = slot
        return slot

    def put(self, key, nbytes):
        """Generator: store ``nbytes`` under ``key``; returns the slot.

        Raises :class:`PoolFull` when space cannot be found — callers
        (the LDMS) are expected to fall back to the cluster level.
        """
        slot = self.try_reserve(key, nbytes)
        if slot is None:
            raise PoolFull(
                "{}: no space for {} bytes ({} free)".format(
                    self.name, nbytes, self.free_bytes
                )
            )
        delay = self.op_time(nbytes)
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        self.puts += 1
        return slot

    def get(self, key):
        """Generator: read the entry under ``key``; returns its size.

        Touches LRU order.  Raises ``KeyError`` if absent.
        """
        slot = self._entries[key]
        self._entries.move_to_end(key)
        delay = self.op_time(slot.nbytes)
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        self.gets += 1
        return slot.nbytes

    def remove(self, key):
        """Drop the entry under ``key``, freeing its chunk (no time cost)."""
        slot = self._entries.pop(key)
        if self._traced and self.env.tracer.enabled:
            self.env.tracer.instant(
                "alloc.free", store=self.name, key=key
            )
        self._allocator.free_entry(slot.chunks)
        return slot.nbytes

    def evict_lru(self):
        """Remove and return ``(key, nbytes)`` of the least recently used
        entry, or ``None`` if the pool is empty."""
        if not self._entries:
            return None
        key, slot = next(iter(self._entries.items()))
        self.remove(key)
        self.evictions += 1
        return key, slot.nbytes

    def keys(self):
        """Keys in LRU-to-MRU order."""
        return list(self._entries)
