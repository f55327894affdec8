"""Unit tests for the jemalloc-style arena allocator."""

import random

import pytest

from repro.mem.allocator import AllocationError
from repro.mem.arena import (
    DEFAULT_GROW_UNIT,
    EXTENT_QUANTUM,
    RUN_HEADER_BYTES,
    Arena,
    UniformAllocator,
    geometric_size_classes,
    make_allocator,
)
from tests.mem.conftest import (
    allocate_checked,
    assert_open_index_exact,
    linear_class_for,
)

CAPACITY = 1024 * 1024


def fresh(capacity=CAPACITY, **kwargs):
    return Arena(capacity, **kwargs)


# -- size classes -------------------------------------------------------------


def test_geometric_size_classes_shape():
    classes = geometric_size_classes(quantum=512, max_small=16384,
                                     group_classes=4)
    assert classes[0] == 512
    assert classes[-1] == 16384
    assert list(classes) == sorted(set(classes))
    # Every power-of-two group [g, 2g) is split four ways, so spacing
    # within a group is g/4 and relative internal waste stays ~1/4.
    assert 640 in classes and 768 in classes and 896 in classes
    assert 1024 in classes


def test_geometric_size_classes_validation():
    with pytest.raises(ValueError):
        geometric_size_classes(quantum=0)
    with pytest.raises(ValueError):
        geometric_size_classes(quantum=512, max_small=256)
    with pytest.raises(ValueError):
        geometric_size_classes(group_classes=0)


def test_small_allocation_uses_smallest_fitting_class():
    arena = fresh()
    allocation = arena.allocate(700)
    assert allocation.block_bytes == arena.class_for(700)
    assert allocation.block_bytes >= 700
    smaller = [c for c in arena.size_classes if c < allocation.block_bytes]
    assert all(c < 700 for c in smaller)


def test_large_allocation_rounds_to_extent_quantum():
    arena = fresh()
    allocation = arena.allocate(arena.max_small + 1)
    assert allocation.extent is not None
    assert allocation.block_bytes % EXTENT_QUANTUM == 0
    assert allocation.block_bytes >= arena.max_small + 1


# -- conservation -------------------------------------------------------------


def test_conservation_through_alloc_free():
    arena = fresh()
    assert arena.conserves()
    live = [arena.allocate(size) for size in (512, 3000, 17000, 90000, 64)]
    assert arena.conserves()
    assert arena.payload_bytes == 512 + 3000 + 17000 + 90000 + 64
    for allocation in live:
        arena.free(allocation)
        assert arena.conserves()
    assert arena.payload_bytes == 0
    assert arena.live_bytes == 0
    assert arena.metadata_bytes == 0
    assert arena.free_bytes == arena.capacity_bytes


def test_run_metadata_is_charged_and_refunded():
    arena = fresh()
    allocation = arena.allocate(512)
    assert arena.metadata_bytes >= RUN_HEADER_BYTES
    arena.free(allocation)
    assert arena.metadata_bytes == 0


def test_double_free_raises():
    arena = fresh()
    allocation = arena.allocate(1024)
    arena.free(allocation)
    with pytest.raises(AllocationError):
        arena.free(allocation)


def test_free_coalesces_neighbouring_extents():
    arena = fresh()
    first = arena.allocate(100 * 1024)
    second = arena.allocate(100 * 1024)
    arena.free(first)
    arena.free(second)
    assert arena.largest_free_extent == arena.capacity_bytes


# -- fragmentation ------------------------------------------------------------


def swiss_cheese(arena, keep_every=16):
    """Fill the arena with one small class, then free most regions so
    raw free bytes are high but no whole extent survives."""
    live = []
    while True:
        try:
            live.append(arena.allocate(512))
        except AllocationError:
            break
    kept = [a for i, a in enumerate(live) if i % keep_every == 0]
    for i, allocation in enumerate(live):
        if i % keep_every != 0:
            arena.free(allocation)
    return kept


def test_fragmented_arena_reports_low_allocatable():
    arena = fresh()
    swiss_cheese(arena)
    stats = arena.frag_stats()
    # Lots of raw free bytes, none of them entry-grain allocatable:
    # every extent is pinned by a sparse run of the 512 class.
    assert stats.free_bytes > arena.capacity_bytes // 2
    assert arena.allocatable_bytes(64 * 1024) == 0
    assert stats.external_fragmentation > 0.9
    # The same free bytes still serve the fragmented class itself.
    assert arena.allocatable_bytes(512) > 0
    with pytest.raises(ValueError):
        arena.allocatable_bytes(0)


def test_entry_allocation_is_all_or_nothing():
    arena = fresh()
    swiss_cheese(arena)
    before = (arena.live_bytes, arena.free_bytes, arena.metadata_bytes)
    with pytest.raises(AllocationError):
        arena.allocate_entry(64 * 1024)
    assert (arena.live_bytes, arena.free_bytes, arena.metadata_bytes) == before
    assert arena.conserves()


def test_compaction_restores_allocatable_bytes():
    arena = fresh()
    kept = swiss_cheese(arena)
    live_before = arena.live_bytes
    payload_before = arena.payload_bytes
    moved = arena.compact()
    assert moved > 0
    assert arena.compactions == 1
    assert arena.live_bytes == live_before
    assert arena.payload_bytes == payload_before
    assert arena.conserves()
    # The free bytes coalesced: entry-grain requests fit again.
    assert arena.allocatable_bytes(64 * 1024) > 0
    assert arena.frag_stats().external_fragmentation < 0.1
    # Handles stayed valid through the retargeting.
    for allocation in kept:
        arena.free(allocation)
    assert arena.conserves()
    assert arena.free_bytes == arena.capacity_bytes


def test_entry_splits_into_max_small_pieces():
    arena = fresh()
    blocks = arena.allocate_entry(40000)
    assert sum(b.payload_bytes for b in blocks) == 40000
    assert all(b.payload_bytes <= arena.max_small for b in blocks)
    arena.free_entry(blocks)
    assert arena.free_bytes == arena.capacity_bytes


# -- resizing -----------------------------------------------------------------


def test_grow_extends_the_top_extent():
    arena = fresh()
    arena.grow(2)
    assert arena.capacity_bytes == CAPACITY + 2 * DEFAULT_GROW_UNIT
    assert arena.largest_free_extent == arena.capacity_bytes
    assert arena.total_slabs == arena.capacity_bytes // DEFAULT_GROW_UNIT


def test_shrink_only_takes_the_free_tail():
    arena = fresh(2 * DEFAULT_GROW_UNIT)
    assert arena.shrink(1) == 1
    assert arena.capacity_bytes == DEFAULT_GROW_UNIT
    # A live block pinning the top of the address space blocks shrink
    # even though nearly everything is free.
    arena = fresh(2 * DEFAULT_GROW_UNIT)
    blocks = []
    while True:
        try:
            blocks.append(arena.allocate(arena.max_small))
        except AllocationError:
            break
    for block in blocks[:-1]:
        arena.free(block)
    assert arena.free_bytes > DEFAULT_GROW_UNIT
    assert arena.shrink(2) < 2


# -- the uniform baseline and the factory -------------------------------------


def test_uniform_allocator_never_fragments():
    uniform = UniformAllocator(CAPACITY)
    blocks = [uniform.allocate(100000) for _ in range(5)]
    assert uniform.free_bytes == CAPACITY - 500000
    assert uniform.allocatable_bytes(64 * 1024) == uniform.free_bytes
    assert uniform.largest_free_extent == uniform.free_bytes
    assert uniform.metadata_bytes == 0
    assert uniform.compact() == 0
    with pytest.raises(AllocationError):
        uniform.allocate(CAPACITY)
    for block in blocks:
        uniform.free(block)
    with pytest.raises(AllocationError):
        uniform.free(blocks[0])
    assert uniform.free_bytes == CAPACITY


def test_make_allocator_policies():
    assert isinstance(make_allocator("arena", CAPACITY), Arena)
    assert isinstance(make_allocator("uniform", CAPACITY), UniformAllocator)
    slab = make_allocator(
        "slab", CAPACITY, size_classes=(512, 1024), slab_bytes=64 * 1024
    )
    assert slab.capacity_bytes == CAPACITY
    with pytest.raises(ValueError):
        make_allocator("slab", CAPACITY)
    with pytest.raises(ValueError):
        make_allocator("buddy", CAPACITY)


def test_frag_stats_rows_share_one_surface():
    for policy in ("uniform", "arena"):
        allocator = make_allocator(policy, CAPACITY)
        allocator.allocate(1000)
        row = allocator.frag_stats().as_row()
        assert row["capacity_bytes"] == CAPACITY
        assert row["payload_bytes"] == 1000
        assert 0.0 <= row["external_fragmentation"] <= 1.0
        assert 0.0 <= row["internal_fragmentation"] <= 1.0
        assert row["allocatable_bytes"] <= row["free_bytes"]


# -- open-run index -----------------------------------------------------------


def test_class_for_matches_the_linear_rule():
    arena = fresh()
    for nbytes in range(1, arena.max_small + 2):
        assert arena.class_for(nbytes) == linear_class_for(arena, nbytes)
    assert arena.class_for(arena.max_small + 1) is None


def test_open_index_tracks_fill_reopen_and_reclaim():
    arena = fresh()
    chunk_size = arena.class_for(4096)
    _nbytes, regions, _meta = arena._run_layout(chunk_size)
    # Filling one run exactly closes it; the next block opens a second.
    first = [allocate_checked(arena, 4096) for _ in range(regions)]
    assert arena._open_offsets[chunk_size] == []
    second = allocate_checked(arena, 4096)
    assert second.run is not first[0].run
    assert_open_index_exact(arena)
    # The full run gets a region back: it reopens, below the new run.
    arena.free(first[3])
    assert_open_index_exact(arena)
    assert arena._open_offsets[chunk_size][0] == first[0].run.extent.offset
    assert allocate_checked(arena, 4096).run is first[0].run
    # An emptied run is reclaimed and leaves the index.
    arena.free(second)
    assert_open_index_exact(arena)
    assert arena._open_offsets[chunk_size] == []


def test_open_index_under_seeded_churn():
    rng = random.Random(11)
    arena = fresh()
    live = []
    for step in range(3000):
        roll = rng.random()
        try:
            if roll < 0.5:
                live.append(allocate_checked(arena, rng.randint(1, 20000)))
            elif roll < 0.6:
                live.extend(arena.allocate_entry(rng.randint(1, 70000)))
            elif roll < 0.98:
                if live:
                    arena.free(live.pop(rng.randrange(len(live))))
            else:
                arena.compact()
                assert_open_index_exact(arena)
                # The next allocation still takes the lowest open run.
                live.append(allocate_checked(arena, rng.choice((512, 3000))))
        except AllocationError:
            pass
        assert_open_index_exact(arena)
        assert arena.conserves(), step
