"""Unit tests for the slab allocator."""

import pytest

from repro.mem import AllocationError, SlabAllocator


def make_allocator(capacity=4 * 1024 * 1024, classes=(512, 1024, 2048, 4096)):
    return SlabAllocator(capacity, classes, slab_bytes=1024 * 1024)


def test_class_for_picks_smallest_fitting():
    allocator = make_allocator()
    assert allocator.class_for(1) == 512
    assert allocator.class_for(512) == 512
    assert allocator.class_for(513) == 1024
    assert allocator.class_for(4096) == 4096
    assert allocator.class_for(4097) is None


def test_allocate_and_free_roundtrip():
    allocator = make_allocator()
    chunk = allocator.allocate(700)
    assert chunk.chunk_size == 1024
    assert allocator.allocated_chunks == 1
    assert allocator.stored_payload_bytes == 700
    allocator.free(chunk)
    assert allocator.allocated_chunks == 0
    assert allocator.stored_payload_bytes == 0
    assert allocator.free_bytes == allocator.capacity_bytes


def test_oversized_allocation_raises():
    allocator = make_allocator()
    with pytest.raises(AllocationError):
        allocator.allocate(8192)


def test_nonpositive_allocation_rejected():
    allocator = make_allocator()
    with pytest.raises(ValueError):
        allocator.allocate(0)


def test_pool_exhaustion():
    allocator = SlabAllocator(1024 * 1024, [4096], slab_bytes=1024 * 1024)
    chunks = [allocator.allocate(4096) for _ in range(256)]
    with pytest.raises(AllocationError):
        allocator.allocate(4096)
    allocator.free(chunks[0])
    allocator.allocate(4096)  # space reappears


def test_empty_slab_is_reclaimed_for_other_class():
    allocator = SlabAllocator(1024 * 1024, [512, 4096], slab_bytes=1024 * 1024)
    # Fill the single slab with 512-byte chunks.
    chunks = [allocator.allocate(512) for _ in range(2048)]
    with pytest.raises(AllocationError):
        allocator.allocate(4096)
    for chunk in chunks:
        allocator.free(chunk)
    # Slab is free again and can serve the 4096 class.
    assert allocator.allocate(4096).chunk_size == 4096


def test_fragmentation_metric():
    allocator = make_allocator()
    assert allocator.internal_fragmentation() == 0.0
    allocator.allocate(512)   # exact fit
    assert allocator.internal_fragmentation() == 0.0
    allocator.allocate(513)   # half-wasted 1024 chunk
    assert allocator.internal_fragmentation() > 0.0


def test_utilization():
    allocator = make_allocator(capacity=1024 * 1024)
    assert allocator.utilization() == 0.0
    allocator.allocate(4096)
    assert allocator.utilization() == pytest.approx(4096 / (1024 * 1024))


def test_grow_and_shrink():
    allocator = make_allocator(capacity=0)
    assert allocator.total_slabs == 0
    allocator.grow(2)
    assert allocator.capacity_bytes == 2 * 1024 * 1024
    chunk = allocator.allocate(4096)
    # Only one slab is idle; the other hosts the live chunk.
    assert allocator.shrink(2) == 1
    allocator.free(chunk)
    assert allocator.shrink(2) == 1
    assert allocator.capacity_bytes == 0


def live_slab_ids(allocator):
    slabs = list(allocator._free_slabs)
    for class_slabs in allocator._class_slabs.values():
        slabs.extend(class_slabs)
    return [slab.slab_id for slab in slabs]


def test_slab_ids_stay_unique_across_grow_shrink_grow():
    allocator = make_allocator(capacity=2 * 1024 * 1024)
    allocator.grow(1)
    chunks = [allocator.allocate(size) for size in (512, 1024, 4096)]
    assert allocator.shrink(3) == 0  # every slab hosts a live chunk
    allocator.free(chunks.pop())
    assert allocator.shrink(1) == 1
    for _ in range(3):
        allocator.grow(1)
    chunks.append(allocator.allocate(2048))
    ids = live_slab_ids(allocator)
    assert len(ids) == allocator.total_slabs == 5
    assert len(set(ids)) == len(ids)


def test_invalid_construction():
    with pytest.raises(ValueError):
        SlabAllocator(1024, [], slab_bytes=1024)
    with pytest.raises(ValueError):
        SlabAllocator(1024, [2048], slab_bytes=1024)
    with pytest.raises(ValueError):
        SlabAllocator(1024, [512], slab_bytes=0)
