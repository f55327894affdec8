"""A jemalloc-style arena allocator over a node's byte pool.

Where :class:`repro.mem.allocator.SlabAllocator` models memcached's
fixed 1 MiB slabs, this module models the allocator family actually
used under remote-memory pools (jemalloc / arralloc): the pool is a
byte range managed as *extents* (contiguous free ranges, coalesced by
address), small allocations are served from *runs* (an extent carved
into equal regions of one geometrically spaced size class, with a
per-run header), and large allocations take whole extents.  Metadata —
run headers plus the slack a run cannot carve into regions — is charged
against the pool itself, so the conservation identity

    ``live_bytes + free_bytes + metadata_bytes == capacity_bytes``

holds exactly at every step (the hypothesis suite in
``tests/property/test_arena_props.py`` churns on it).

Fragmentation is therefore *real* here: a pool can report plenty of raw
free bytes while no extent is large enough to start a new run of the
class a request needs.  :meth:`Arena.allocatable_bytes` derives what is
actually satisfiable from the free structure, and :meth:`Arena.compact`
models a defragmentation pass — consolidating half-empty runs and
sliding everything to the bottom of the address space — returning the
bytes copied so callers can charge simulated copy cost.

:class:`UniformAllocator` is the idealized baseline the cluster-level
numbers were previously computed against: one free-byte counter, no
fragmentation ever.  Both backends share the allocator surface of
:class:`SlabAllocator` (``allocate/free/allocate_entry/free_entry/
grow/shrink``) and the :class:`~repro.mem.fragstats.FragmentationStats`
reporting surface, so pools and tiers can switch policy by name via
:func:`make_allocator`.
"""

import heapq
from bisect import bisect_left, insort

from repro.mem.allocator import AllocationError, SlabAllocator
from repro.mem.fragstats import FragmentationStats, build_histogram

#: Arena growth granularity when none is given (matches the slab size).
DEFAULT_GROW_UNIT = 1024 * 1024

#: Per-run header carved from the run's extent.
RUN_HEADER_BYTES = 64

#: Extents are sized and split in multiples of this.
EXTENT_QUANTUM = 4096


def geometric_size_classes(quantum=512, max_small=16384, group_classes=4):
    """jemalloc-style size classes: ``group_classes`` per doubling.

    Starting at ``quantum``, each power-of-two group ``[g, 2g)`` is
    split into ``group_classes`` evenly spaced classes, bounding
    internal fragmentation at roughly ``1/group_classes``.
    """
    if quantum < 1 or max_small < quantum:
        raise ValueError("need 1 <= quantum <= max_small")
    if group_classes < 1:
        raise ValueError("group_classes must be >= 1")
    classes = [quantum]
    group = quantum
    while group < max_small:
        spacing = max(group // group_classes, 1)
        for step in range(1, group_classes + 1):
            size = group + spacing * step
            if size > max_small:
                break
            if size != classes[-1]:
                classes.append(size)
        group *= 2
    return tuple(classes)


def _round_up(nbytes, quantum):
    return ((nbytes + quantum - 1) // quantum) * quantum


class Extent:
    """A contiguous byte range ``[offset, offset + length)``."""

    __slots__ = ("offset", "length")

    def __init__(self, offset, length):
        self.offset = offset
        self.length = length

    @property
    def end(self):
        return self.offset + self.length

    def __repr__(self):
        return "<Extent [{}, {})>".format(self.offset, self.end)


class _Run:
    """An extent carved into equal regions of one size class.

    Hashed by identity: :class:`Arena` keeps each class's runs as the
    keys of an insertion-ordered dict so reclaiming one is O(1).
    """

    __slots__ = ("extent", "chunk_size", "regions", "free_indices", "used",
                 "allocations")

    def __init__(self, extent, chunk_size, regions):
        self.extent = extent
        self.chunk_size = chunk_size
        self.regions = regions
        self.free_indices = list(range(regions))
        heapq.heapify(self.free_indices)
        self.used = 0
        #: index -> live Allocation, so compaction can retarget handles.
        self.allocations = {}


class Allocation:
    """A handle to one live arena block (small region or large extent)."""

    __slots__ = ("run", "index", "extent", "block_bytes", "payload_bytes",
                 "freed")

    def __init__(self, block_bytes, payload_bytes, run=None, index=None,
                 extent=None):
        self.run = run
        self.index = index
        self.extent = extent
        self.block_bytes = block_bytes
        self.payload_bytes = payload_bytes
        self.freed = False

    @property
    def chunk_size(self):
        """Block cost of this handle (named like :class:`Chunk` for pools)."""
        return self.block_bytes

    def __repr__(self):
        kind = "large" if self.extent is not None else "small"
        return "<Allocation {} {}B>".format(kind, self.block_bytes)


class Arena:
    """Extent/run allocation with explicit fragmentation accounting."""

    def __init__(self, capacity_bytes, quantum=512, max_small=16384,
                 group_classes=4, grow_unit=None):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = int(capacity_bytes)
        self.grow_unit = int(grow_unit) if grow_unit else DEFAULT_GROW_UNIT
        if self.grow_unit <= 0:
            raise ValueError("grow_unit must be positive")
        self.size_classes = geometric_size_classes(
            quantum, max_small, group_classes
        )
        self.max_small = max_small
        self._free = []  # Extents sorted by offset.
        if self.capacity_bytes:
            self._free.append(Extent(0, self.capacity_bytes))
        #: chunk_size -> {run: None}, in run-creation order.
        self._runs = {chunk_size: {} for chunk_size in self.size_classes}
        # The open-run index: per class, the runs with at least one free
        # region, as ascending extent offsets plus an offset -> run map.
        # ``allocate`` takes the lowest offset instead of scanning runs.
        self._open_offsets = {}
        self._open_runs = {}
        self._reindex()
        self._large = []
        self.payload_bytes = 0
        self.live_bytes = 0
        self.metadata_bytes = 0
        self.compactions = 0

    # -- introspection -------------------------------------------------------

    @property
    def total_slabs(self):
        """Capacity in grow units (the pools' slab-count view)."""
        return self.capacity_bytes // self.grow_unit

    @property
    def free_bytes(self):
        """Free extent bytes plus free regions inside partial runs."""
        free = sum(extent.length for extent in self._free)
        for chunk_size, runs in self._runs.items():
            for run in runs:
                free += len(run.free_indices) * chunk_size
        return free

    @property
    def stored_payload_bytes(self):
        return self.payload_bytes

    @property
    def stored_chunk_bytes(self):
        return self.live_bytes

    @property
    def largest_free_extent(self):
        """Largest contiguous free range (free region class as floor)."""
        largest = max((extent.length for extent in self._free), default=0)
        for chunk_size in reversed(self.size_classes):
            if chunk_size <= largest:
                break
            if any(run.free_indices for run in self._runs[chunk_size]):
                largest = chunk_size
                break
        return largest

    def utilization(self):
        if self.capacity_bytes == 0:
            return 0.0
        return self.payload_bytes / self.capacity_bytes

    def internal_fragmentation(self):
        if self.live_bytes == 0:
            return 0.0
        return 1.0 - self.payload_bytes / self.live_bytes

    def conserves(self):
        """The arena invariant: live + free + metadata == capacity."""
        return (
            self.live_bytes + self.free_bytes + self.metadata_bytes
            == self.capacity_bytes
        )

    def class_for(self, nbytes):
        """Smallest size class fitting ``nbytes`` (None when large)."""
        size_classes = self.size_classes
        position = bisect_left(size_classes, nbytes)
        if position == len(size_classes):
            return None
        return size_classes[position]

    def run_bytes(self, chunk_size):
        """Extent size backing a run of ``chunk_size`` regions."""
        target = max(1, (64 * 1024) // chunk_size)
        return _round_up(RUN_HEADER_BYTES + chunk_size * target, EXTENT_QUANTUM)

    def _run_layout(self, chunk_size):
        nbytes = self.run_bytes(chunk_size)
        regions = (nbytes - RUN_HEADER_BYTES) // chunk_size
        slack = nbytes - RUN_HEADER_BYTES - regions * chunk_size
        return nbytes, regions, RUN_HEADER_BYTES + slack

    def free_extent_sizes(self):
        """Sizes feeding the free-extent histogram (extents + regions)."""
        sizes = [extent.length for extent in self._free]
        for chunk_size, runs in self._runs.items():
            for run in runs:
                sizes.extend([chunk_size] * len(run.free_indices))
        return sizes

    def allocatable_bytes(self, request=None):
        """Bytes satisfiable by requests of ``request`` payload each.

        Derived from the free structure: free regions of the request's
        class serve one request apiece, and every free extent can be
        carved into whole new runs of that class.  Requests above the
        largest small class split into largest-class pieces, so their
        capacity is the piece capacity floored to whole requests.
        """
        if request is None:
            request = self.max_small
        if request <= 0:
            raise ValueError("request must be positive")
        if request > self.max_small:
            pieces_per_request = -(-request // self.max_small)
            piece_capacity = (
                self.allocatable_bytes(self.max_small) // self.max_small
            )
            return (piece_capacity // pieces_per_request) * request
        chunk_size = self.class_for(request)
        run_nbytes, regions, _meta = self._run_layout(chunk_size)
        count = sum(
            len(run.free_indices) for run in self._runs[chunk_size]
        )
        for extent in self._free:
            count += (extent.length // run_nbytes) * regions
        return count * request

    def frag_stats(self):
        return FragmentationStats(
            capacity_bytes=self.capacity_bytes,
            payload_bytes=self.payload_bytes,
            live_bytes=self.live_bytes,
            free_bytes=self.free_bytes,
            metadata_bytes=self.metadata_bytes,
            largest_free_extent=self.largest_free_extent,
            allocatable_bytes=self.allocatable_bytes(),
            free_extent_histogram=build_histogram(self.free_extent_sizes()),
        )

    # -- extent management ---------------------------------------------------

    def _take_extent(self, length):
        """Best-fit: smallest free extent >= length, lowest offset on ties."""
        best = None
        for position, extent in enumerate(self._free):
            if extent.length < length:
                continue
            if best is None or extent.length < self._free[best].length:
                best = position
        if best is None:
            return None
        extent = self._free[best]
        offset = extent.offset
        if extent.length == length:
            self._free.pop(best)
        else:
            extent.offset += length
            extent.length -= length
        return offset

    def _release_extent(self, offset, length):
        """Insert a free range by address, coalescing with neighbours."""
        position = 0
        for position, extent in enumerate(self._free):
            if extent.offset > offset:
                break
        else:
            position = len(self._free)
        self._free.insert(position, Extent(offset, length))
        merged = self._free[position]
        if position + 1 < len(self._free):
            after = self._free[position + 1]
            if merged.end == after.offset:
                merged.length += after.length
                self._free.pop(position + 1)
        if position > 0:
            before = self._free[position - 1]
            if before.end == merged.offset:
                before.length += merged.length
                self._free.pop(position)

    # -- allocation ----------------------------------------------------------

    def allocate(self, nbytes):
        """Allocate one block for a payload of ``nbytes``."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        chunk_size = self.class_for(nbytes)
        if chunk_size is None:
            return self._allocate_large(nbytes)
        offsets = self._open_offsets[chunk_size]
        if offsets:
            run = self._open_runs[chunk_size][offsets[0]]
        else:
            run = self._new_run(chunk_size)
        index = heapq.heappop(run.free_indices)
        if not run.free_indices:
            self._close_run(run)
        run.used += 1
        allocation = Allocation(chunk_size, nbytes, run, index)
        run.allocations[index] = allocation
        self.live_bytes += chunk_size
        self.payload_bytes += nbytes
        return allocation

    def _new_run(self, chunk_size):
        nbytes, regions, metadata = self._run_layout(chunk_size)
        offset = self._take_extent(nbytes)
        if offset is None:
            raise AllocationError(
                "no extent of {} bytes for a {}-class run".format(
                    nbytes, chunk_size
                )
            )
        run = _Run(Extent(offset, nbytes), chunk_size, regions)
        self._runs[chunk_size][run] = None
        self._open_run(run)
        self.metadata_bytes += metadata
        return run

    def _open_run(self, run):
        """Index a run that has just gained a free region."""
        offset = run.extent.offset
        insort(self._open_offsets[run.chunk_size], offset)
        self._open_runs[run.chunk_size][offset] = run

    def _close_run(self, run):
        """Drop a run that filled up or is being reclaimed from the index."""
        offset = run.extent.offset
        offsets = self._open_offsets[run.chunk_size]
        del offsets[bisect_left(offsets, offset)]
        del self._open_runs[run.chunk_size][offset]

    def _reindex(self):
        """Rebuild the open-run index from the runs (at set-up and after
        compaction, which moves run offsets)."""
        for chunk_size, runs in self._runs.items():
            open_runs = {
                run.extent.offset: run for run in runs if run.free_indices
            }
            self._open_runs[chunk_size] = open_runs
            self._open_offsets[chunk_size] = sorted(open_runs)

    def _allocate_large(self, nbytes):
        block = _round_up(nbytes, EXTENT_QUANTUM)
        offset = self._take_extent(block)
        if offset is None:
            raise AllocationError(
                "no extent of {} bytes for a large allocation".format(block)
            )
        allocation = Allocation(
            block, nbytes, extent=Extent(offset, block)
        )
        self._large.append(allocation)
        self.live_bytes += block
        self.payload_bytes += nbytes
        return allocation

    def free(self, allocation):
        """Free one block; coalesce and reclaim empty runs."""
        if allocation.freed:
            raise AllocationError("double free of {!r}".format(allocation))
        allocation.freed = True
        if allocation.extent is not None:
            self._large.remove(allocation)
            self._release_extent(
                allocation.extent.offset, allocation.extent.length
            )
            self.live_bytes -= allocation.block_bytes
            self.payload_bytes -= allocation.payload_bytes
            return
        run = allocation.run
        del run.allocations[allocation.index]
        was_full = not run.free_indices
        heapq.heappush(run.free_indices, allocation.index)
        run.used -= 1
        self.live_bytes -= allocation.block_bytes
        self.payload_bytes -= allocation.payload_bytes
        if run.used == 0:
            if not was_full:
                self._close_run(run)
            chunk_size = run.chunk_size
            _nbytes, _regions, metadata = self._run_layout(chunk_size)
            del self._runs[chunk_size][run]
            self.metadata_bytes -= metadata
            self._release_extent(run.extent.offset, run.extent.length)
        elif was_full:
            self._open_run(run)

    def allocate_entry(self, nbytes):
        """Allocate a list of blocks covering ``nbytes``, all or nothing.

        Entries split into largest-small-class pieces plus a tail, the
        same splitting contract as :meth:`SlabAllocator.allocate_entry`.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if nbytes <= self.max_small:
            return [self.allocate(nbytes)]
        blocks = []
        remaining = nbytes
        try:
            while remaining > 0:
                piece = min(remaining, self.max_small)
                blocks.append(self.allocate(piece))
                remaining -= piece
        except AllocationError:
            for block in blocks:
                self.free(block)
            raise
        return blocks

    def free_entry(self, blocks):
        for block in blocks:
            self.free(block)

    # -- resizing ------------------------------------------------------------

    def grow(self, slab_count):
        """Append ``slab_count`` grow units of fresh address space."""
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        if slab_count == 0:
            return
        added = slab_count * self.grow_unit
        self._release_extent(self.capacity_bytes, added)
        self.capacity_bytes += added

    def shrink(self, slab_count):
        """Trim up to ``slab_count`` grow units off the *free tail*.

        Unlike the uniform baseline, a fragmented arena may be unable
        to give space back even when plenty is free — only address
        space that is free right up to the top can go.  Returns how
        many units went.
        """
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        removed = 0
        while removed < slab_count and self._free:
            tail = self._free[-1]
            if tail.end != self.capacity_bytes or tail.length < self.grow_unit:
                break
            tail.length -= self.grow_unit
            self.capacity_bytes -= self.grow_unit
            if tail.length == 0:
                self._free.pop()
            removed += 1
        return removed

    # -- compaction ----------------------------------------------------------

    def compact(self):
        """Defragment: consolidate partial runs, slide everything down.

        Phase 1 migrates live regions out of the emptiest runs of each
        class into the fullest, releasing whole runs; phase 2 packs the
        surviving runs and large extents to the bottom of the address
        space so the free bytes coalesce into one top extent.  Handles
        stay valid throughout.  Returns the bytes copied, which callers
        charge at simulated memory-copy cost; live and payload bytes
        never change.
        """
        moved = 0
        for chunk_size in self.size_classes:
            moved += self._consolidate_class(chunk_size)
        moved += self._pack()
        self._reindex()
        self.compactions += 1
        return moved

    def _consolidate_class(self, chunk_size):
        runs = sorted(
            self._runs[chunk_size],
            key=lambda run: (-run.used, run.extent.offset),
        )
        moved = 0
        receiver = 0
        donor = len(runs) - 1
        while receiver < donor:
            target = runs[receiver]
            source = runs[donor]
            if not target.free_indices:
                receiver += 1
                continue
            if source.used == 0:
                donor -= 1
                continue
            index = max(source.allocations)
            allocation = source.allocations.pop(index)
            heapq.heappush(source.free_indices, index)
            source.used -= 1
            new_index = heapq.heappop(target.free_indices)
            target.allocations[new_index] = allocation
            target.used += 1
            allocation.run = target
            allocation.index = new_index
            moved += chunk_size
        for run in runs:
            if run.used == 0:
                _nbytes, _regions, metadata = self._run_layout(chunk_size)
                del self._runs[chunk_size][run]
                self.metadata_bytes -= metadata
                self._release_extent(run.extent.offset, run.extent.length)
        return moved

    def _pack(self):
        placements = []
        for runs in self._runs.values():
            for run in runs:
                placements.append((run.extent, run.used * run.chunk_size))
        for allocation in self._large:
            placements.append((allocation.extent, allocation.block_bytes))
        placements.sort(key=lambda pair: pair[0].offset)
        cursor = 0
        moved = 0
        for extent, live in placements:
            if extent.offset != cursor:
                extent.offset = cursor
                moved += live
            cursor += extent.length
        self._free = []
        if cursor < self.capacity_bytes:
            self._free.append(Extent(cursor, self.capacity_bytes - cursor))
        return moved


class UniformAllocator:
    """The idealized uniform-slot baseline: one counter, zero fragmentation.

    This is exactly the remote-pool model the cluster experiments used
    before the arena existed — every free byte is contiguous and
    allocatable, metadata is free, shrink always succeeds up to the
    free-byte count.  It exists so the ``allocation_fragmentation``
    experiment can quantify what that idealization hides.
    """

    def __init__(self, capacity_bytes, grow_unit=None):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = int(capacity_bytes)
        self.grow_unit = int(grow_unit) if grow_unit else DEFAULT_GROW_UNIT
        if self.grow_unit <= 0:
            raise ValueError("grow_unit must be positive")
        self.payload_bytes = 0
        self.compactions = 0

    # -- introspection -------------------------------------------------------

    @property
    def total_slabs(self):
        return self.capacity_bytes // self.grow_unit

    @property
    def live_bytes(self):
        return self.payload_bytes

    @property
    def metadata_bytes(self):
        return 0

    @property
    def free_bytes(self):
        return self.capacity_bytes - self.payload_bytes

    @property
    def largest_free_extent(self):
        return self.free_bytes

    @property
    def stored_payload_bytes(self):
        return self.payload_bytes

    @property
    def stored_chunk_bytes(self):
        return self.payload_bytes

    def utilization(self):
        if self.capacity_bytes == 0:
            return 0.0
        return self.payload_bytes / self.capacity_bytes

    def internal_fragmentation(self):
        return 0.0

    def conserves(self):
        return True

    def allocatable_bytes(self, request=None):
        return self.free_bytes

    def free_extent_sizes(self):
        return [self.free_bytes] if self.free_bytes else []

    def frag_stats(self):
        return FragmentationStats(
            capacity_bytes=self.capacity_bytes,
            payload_bytes=self.payload_bytes,
            live_bytes=self.payload_bytes,
            free_bytes=self.free_bytes,
            metadata_bytes=0,
            largest_free_extent=self.free_bytes,
            allocatable_bytes=self.free_bytes,
            free_extent_histogram=build_histogram(self.free_extent_sizes()),
        )

    # -- allocation ----------------------------------------------------------

    def allocate(self, nbytes):
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if nbytes > self.free_bytes:
            raise AllocationError("pool exhausted")
        self.payload_bytes += nbytes
        return Allocation(nbytes, nbytes)

    def free(self, allocation):
        if allocation.freed:
            raise AllocationError("double free of {!r}".format(allocation))
        allocation.freed = True
        self.payload_bytes -= allocation.payload_bytes

    def allocate_entry(self, nbytes):
        return [self.allocate(nbytes)]

    def free_entry(self, blocks):
        for block in blocks:
            self.free(block)

    # -- resizing ------------------------------------------------------------

    def grow(self, slab_count):
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        self.capacity_bytes += slab_count * self.grow_unit

    def shrink(self, slab_count):
        if slab_count < 0:
            raise ValueError("slab_count must be >= 0")
        removed = min(slab_count, self.free_bytes // self.grow_unit)
        self.capacity_bytes -= removed * self.grow_unit
        return removed

    def compact(self):
        self.compactions += 1
        return 0


#: Allocation policies accepted by pools, tiers and ClusterConfig.
ALLOC_POLICIES = ("slab", "uniform", "arena")


def make_allocator(policy, capacity_bytes, size_classes=None, slab_bytes=None):
    """Build an allocator backend by policy name.

    ``slab`` is the memcached-style allocator (the historical default
    for node pools), ``uniform`` the idealized counter baseline, and
    ``arena`` the jemalloc-style allocator with real fragmentation.
    ``size_classes`` only applies to the slab policy; ``slab_bytes``
    doubles as the grow unit for the other two.
    """
    if policy == "slab":
        if size_classes is None:
            raise ValueError("slab policy needs size_classes")
        return SlabAllocator(capacity_bytes, size_classes, slab_bytes)
    if policy == "uniform":
        return UniformAllocator(capacity_bytes, grow_unit=slab_bytes)
    if policy == "arena":
        return Arena(capacity_bytes, grow_unit=slab_bytes)
    raise ValueError(
        "unknown alloc policy {!r} (choose from {})".format(
            policy, ", ".join(ALLOC_POLICIES)
        )
    )
