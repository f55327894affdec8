"""A slab/chunk allocator in the memcached style.

The pool is carved into fixed-size *slabs* (default 1 MiB).  Each slab
is assigned on demand to a *size class* and split into equal chunks of
that class's size.  Freeing a chunk returns it to its slab's free list;
a fully free slab can be reclaimed and reassigned to another class.

This is the allocator behind the node shared-memory pool and the
compressed page stores, where Figure 3's effective compression ratios
come from: what a page *costs* is the chunk size of its class, not its
raw compressed size.

It shares the :class:`~repro.mem.fragstats.FragmentationStats`
reporting surface with the jemalloc-style :mod:`repro.mem.arena`
backends.  Unlike the arena, slab metadata (per-slab headers and
free-list entries) is *reported* in the stats but not carved out of
the pool's capacity, preserving the allocator's historical behaviour;
the ``live + free + metadata == capacity`` conservation identity is an
arena-only guarantee.
"""

from repro.mem.fragstats import FragmentationStats, build_histogram


class AllocationError(Exception):
    """The pool cannot satisfy an allocation."""


class Chunk:
    """A handle to one allocated chunk."""

    __slots__ = ("slab", "chunk_size", "index", "payload_bytes")

    def __init__(self, slab, chunk_size, index, payload_bytes=0):
        self.slab = slab
        self.chunk_size = chunk_size
        self.index = index
        self.payload_bytes = payload_bytes

    def __repr__(self):
        return "<Chunk {}B slab={}>".format(self.chunk_size, self.slab.slab_id)


class _Slab:
    __slots__ = ("slab_id", "size", "chunk_size", "free_indices", "used")

    def __init__(self, slab_id, size):
        self.slab_id = slab_id
        self.size = size
        self.chunk_size = None
        self.free_indices = []
        self.used = 0

    def assign(self, chunk_size):
        self.chunk_size = chunk_size
        count = self.size // chunk_size
        self.free_indices = list(range(count))
        self.used = 0

    def reset(self):
        self.chunk_size = None
        self.free_indices = []
        self.used = 0


class SlabAllocator:
    """Allocates chunks of the configured size classes from a byte pool."""

    DEFAULT_SLAB_BYTES = 1024 * 1024
    #: Per-slab descriptor cost, charged whether or not the slab is assigned.
    SLAB_HEADER_BYTES = 64
    #: Per free-chunk free-list entry cost on assigned slabs.
    FREELIST_ENTRY_BYTES = 8

    def __init__(self, capacity_bytes, size_classes, slab_bytes=None):
        if slab_bytes is None:
            slab_bytes = self.DEFAULT_SLAB_BYTES
        if slab_bytes <= 0:
            raise ValueError("slab_bytes must be positive")
        size_classes = sorted(set(size_classes))
        if not size_classes:
            raise ValueError("need at least one size class")
        if any(c <= 0 or c > slab_bytes for c in size_classes):
            raise ValueError("size classes must be in (0, slab_bytes]")
        self.capacity_bytes = int(capacity_bytes)
        self.slab_bytes = slab_bytes
        self.size_classes = size_classes
        self._free_slabs = [
            _Slab(i, slab_bytes) for i in range(self.capacity_bytes // slab_bytes)
        ]
        #: Id for the next slab :meth:`grow` adds; never reused.
        self._next_slab_id = len(self._free_slabs)
        self._class_slabs = {c: [] for c in size_classes}
        self.allocated_chunks = 0
        self.stored_payload_bytes = 0  # what callers asked for
        self.stored_chunk_bytes = 0  # what it actually cost

    # -- introspection -------------------------------------------------------

    @property
    def total_slabs(self):
        return len(self._free_slabs) + sum(
            len(slabs) for slabs in self._class_slabs.values()
        )

    @property
    def free_bytes(self):
        """Bytes not yet committed to any chunk (free slabs + free chunks)."""
        free = len(self._free_slabs) * self.slab_bytes
        for chunk_size, slabs in self._class_slabs.items():
            for slab in slabs:
                free += len(slab.free_indices) * chunk_size
        return free

    @property
    def payload_bytes(self):
        return self.stored_payload_bytes

    @property
    def live_bytes(self):
        return self.stored_chunk_bytes

    @property
    def metadata_bytes(self):
        """Slab headers plus free-list entries on assigned slabs.

        Reported overhead only — the slab allocator does not carve its
        bookkeeping out of the pool, so this does not reduce
        ``free_bytes`` (see the module docstring).
        """
        metadata = self.total_slabs * self.SLAB_HEADER_BYTES
        for slabs in self._class_slabs.values():
            for slab in slabs:
                metadata += len(slab.free_indices) * self.FREELIST_ENTRY_BYTES
        return metadata

    @property
    def largest_free_extent(self):
        """Largest contiguous free range (a whole slab, else a chunk)."""
        if self._free_slabs:
            return self.slab_bytes
        largest = 0
        for chunk_size, slabs in self._class_slabs.items():
            if chunk_size <= largest:
                continue
            if any(slab.free_indices for slab in slabs):
                largest = chunk_size
        return largest

    def utilization(self):
        """stored payload bytes / pool capacity."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.stored_payload_bytes / self.capacity_bytes

    def internal_fragmentation(self):
        """Wasted fraction inside allocated chunks (0 when empty)."""
        if self.stored_chunk_bytes == 0:
            return 0.0
        return 1.0 - self.stored_payload_bytes / self.stored_chunk_bytes

    def allocatable_bytes(self, request=None):
        """Bytes satisfiable by requests of ``request`` payload each.

        A slab assigned to one class only serves that class, so free
        chunks of other classes do not help a request: what counts is
        free chunks of the request's own class plus whatever whole free
        slabs could be assigned to it.  Requests above the largest
        class split into largest-class pieces (the
        :meth:`allocate_entry` contract).
        """
        if request is None:
            request = self.size_classes[-1]
        if request <= 0:
            raise ValueError("request must be positive")
        chunk_size = self.class_for(request)
        if chunk_size is None:
            largest = self.size_classes[-1]
            pieces_per_request = -(-request // largest)
            piece_capacity = self.allocatable_bytes(largest) // largest
            return (piece_capacity // pieces_per_request) * request
        per_slab = self.slab_bytes // chunk_size
        count = len(self._free_slabs) * per_slab
        for slab in self._class_slabs[chunk_size]:
            count += len(slab.free_indices)
        return count * request

    def free_extent_sizes(self):
        """Sizes feeding the free-extent histogram (slabs + free chunks)."""
        sizes = [self.slab_bytes] * len(self._free_slabs)
        for chunk_size, slabs in self._class_slabs.items():
            for slab in slabs:
                sizes.extend([chunk_size] * len(slab.free_indices))
        return sizes

    def frag_stats(self):
        """The shared :class:`FragmentationStats` snapshot."""
        return FragmentationStats(
            capacity_bytes=self.capacity_bytes,
            payload_bytes=self.stored_payload_bytes,
            live_bytes=self.stored_chunk_bytes,
            free_bytes=self.free_bytes,
            metadata_bytes=self.metadata_bytes,
            largest_free_extent=self.largest_free_extent,
            allocatable_bytes=self.allocatable_bytes(),
            free_extent_histogram=build_histogram(self.free_extent_sizes()),
        )

    def class_for(self, nbytes):
        """Smallest size class that fits ``nbytes`` (None if too big)."""
        for chunk_size in self.size_classes:
            if nbytes <= chunk_size:
                return chunk_size
        return None

    # -- allocation ------------------------------------------------------------

    def allocate(self, nbytes):
        """Allocate a chunk for a payload of ``nbytes``.

        Raises :class:`AllocationError` when the payload exceeds the
        largest class or no space remains.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        chunk_size = self.class_for(nbytes)
        if chunk_size is None:
            raise AllocationError(
                "{} bytes exceeds largest size class {}".format(
                    nbytes, self.size_classes[-1]
                )
            )
        slab = self._slab_with_space(chunk_size)
        if slab is None:
            raise AllocationError("pool exhausted")
        index = slab.free_indices.pop()
        slab.used += 1
        self.allocated_chunks += 1
        self.stored_payload_bytes += nbytes
        self.stored_chunk_bytes += chunk_size
        return Chunk(slab, chunk_size, index, payload_bytes=nbytes)

    def free(self, chunk):
        """Return a chunk to its slab; reclaim the slab if it empties."""
        slab = chunk.slab
        slab.free_indices.append(chunk.index)
        slab.used -= 1
        self.allocated_chunks -= 1
        self.stored_payload_bytes -= chunk.payload_bytes
        self.stored_chunk_bytes -= chunk.chunk_size
        if slab.used == 0:
            self._class_slabs[slab.chunk_size].remove(slab)
            slab.reset()
            self._free_slabs.append(slab)

    def allocate_entry(self, nbytes):
        """Allocate a *list* of chunks covering ``nbytes``.

        Payloads larger than the largest size class are split into
        largest-class pieces plus a tail chunk.  Either the whole entry
        is allocated or nothing is (partial allocations roll back).
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        largest = self.size_classes[-1]
        chunks = []
        remaining = nbytes
        try:
            while remaining > 0:
                piece = min(remaining, largest)
                chunks.append(self.allocate(piece))
                remaining -= piece
        except AllocationError:
            for chunk in chunks:
                self.free(chunk)
            raise
        return chunks

    def free_entry(self, chunks):
        """Free every chunk of an entry."""
        for chunk in chunks:
            self.free(chunk)

    def grow(self, slab_count):
        """Add ``slab_count`` fresh slabs to the pool."""
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        base = self._next_slab_id
        for i in range(slab_count):
            self._free_slabs.append(_Slab(base + i, self.slab_bytes))
        self._next_slab_id = base + slab_count
        self.capacity_bytes += slab_count * self.slab_bytes

    def shrink(self, slab_count):
        """Remove up to ``slab_count`` *idle* slabs; returns how many went."""
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        removed = min(slab_count, len(self._free_slabs))
        for _ in range(removed):
            self._free_slabs.pop()
        self.capacity_bytes -= removed * self.slab_bytes
        return removed

    def compact(self):
        """Slab pools don't defragment in place; a no-op (0 bytes moved).

        Chunk packing already keeps at most one partial slab per class,
        so the arena-style consolidation pass has nothing to do here.
        """
        return 0

    def _slab_with_space(self, chunk_size):
        for slab in self._class_slabs[chunk_size]:
            if slab.free_indices:
                return slab
        if self._free_slabs:
            slab = self._free_slabs.pop()
            slab.assign(chunk_size)
            self._class_slabs[chunk_size].append(slab)
            return slab
        return None
