"""Property-based tests for the arena allocator.

Random alloc/free/compact churn must never double-free, never produce
overlapping live blocks, and must conserve ``live + free + metadata ==
capacity`` at every step — the invariants the fragmentation accounting
(and therefore the ``allocation_fragmentation`` experiment) rests on.
The open-run index must also pick, at every step, the run a linear
scan over all runs would have picked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.allocator import AllocationError
from repro.mem.arena import RUN_HEADER_BYTES, Arena
from tests.mem.conftest import (
    allocate_checked,
    assert_open_index_exact,
    linear_class_for,
)

CAPACITY = 512 * 1024


def fresh():
    return Arena(CAPACITY)


@st.composite
def operations(draw):
    """A churn sequence of alloc / free / entry / compact operations."""
    ops = []
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(("alloc", "free", "entry", "compact")))
        if kind == "alloc":
            ops.append(("alloc", draw(st.integers(1, 40000))))
        elif kind == "entry":
            ops.append(("entry", draw(st.integers(1, 100000))))
        elif kind == "free":
            ops.append(("free", draw(st.integers(0, 400))))
        else:
            ops.append(("compact", 0))
    return ops


def live_ranges(arena):
    """Address ranges of every live block, derived from the internals."""
    ranges = []
    for chunk_size, runs in arena._runs.items():
        for run in runs:
            base = run.extent.offset + RUN_HEADER_BYTES
            for index in run.allocations:
                start = base + index * chunk_size
                ranges.append((start, start + chunk_size))
    for allocation in arena._large:
        ranges.append(
            (allocation.extent.offset, allocation.extent.end)
        )
    return ranges


def assert_geometry_sound(arena):
    """No two live blocks overlap, none leaves the address space, and
    none intersects a free extent."""
    ranges = sorted(live_ranges(arena))
    for start, end in ranges:
        assert 0 <= start < end <= arena.capacity_bytes
    for (_, prev_end), (next_start, _) in zip(ranges, ranges[1:]):
        assert prev_end <= next_start
    free = sorted(
        (extent.offset, extent.end) for extent in arena._free
    )
    for fstart, fend in free:
        assert 0 <= fstart < fend <= arena.capacity_bytes
        for start, end in ranges:
            assert fend <= start or end <= fstart


def churn(arena, ops):
    """Apply one churn sequence; returns the live allocation list."""
    live = []
    for op, value in ops:
        if op == "alloc":
            try:
                live.append(arena.allocate(value))
            except AllocationError:
                pass
        elif op == "entry":
            try:
                live.extend(arena.allocate_entry(value))
            except AllocationError:
                pass
        elif op == "free":
            if live:
                arena.free(live.pop(value % len(live)))
        else:
            arena.compact()
        assert arena.conserves(), (op, value)
    return live


@given(operations())
@settings(max_examples=60, deadline=None)
def test_churn_conserves_and_never_overlaps(ops):
    arena = fresh()
    live = churn(arena, ops)
    assert_geometry_sound(arena)
    # Counters match the live set exactly.
    assert arena.payload_bytes == sum(a.payload_bytes for a in live)
    assert arena.live_bytes == sum(a.block_bytes for a in live)
    # Freeing everything returns the arena to pristine state; a second
    # free of any handle is the double-free error, never corruption.
    for allocation in live:
        arena.free(allocation)
    assert arena.free_bytes == arena.capacity_bytes
    assert arena.metadata_bytes == 0
    assert arena.payload_bytes == 0
    for allocation in live:
        try:
            arena.free(allocation)
            raise AssertionError("double free must raise")
        except AllocationError:
            pass
    assert arena.conserves()


@given(operations())
@settings(max_examples=40, deadline=None)
def test_compaction_changes_no_live_accounting(ops):
    arena = fresh()
    live = churn(arena, ops)
    payload, stored = arena.payload_bytes, arena.live_bytes
    free_before = arena.free_bytes
    moved = arena.compact()
    assert moved >= 0
    assert (arena.payload_bytes, arena.live_bytes) == (payload, stored)
    assert arena.conserves()
    assert_geometry_sound(arena)
    # Compaction only consolidates: free bytes may grow (reclaimed run
    # metadata) but never shrink, and contiguity never degrades.
    assert arena.free_bytes >= free_before
    # Handles survive compaction: every live block frees cleanly.
    for allocation in live:
        arena.free(allocation)
    assert arena.free_bytes == arena.capacity_bytes


@given(operations())
@settings(max_examples=40, deadline=None)
def test_allocatable_bytes_is_honest(ops):
    """What ``allocatable_bytes`` promises, the arena delivers: at the
    64 KiB harvest grain, exactly ``promised // grain`` whole entries
    can actually be reserved back to back."""
    grain = 64 * 1024
    arena = fresh()
    churn(arena, ops)
    promised = arena.allocatable_bytes(grain)
    assert promised <= arena.free_bytes
    entries = []
    for _ in range(promised // grain):
        entries.append(arena.allocate_entry(grain))
    for entry in entries:
        arena.free_entry(entry)


@given(operations())
@settings(max_examples=60, deadline=None)
def test_open_run_index_matches_a_linear_scan(ops):
    """After every churn step the index holds exactly the runs with a
    free region, in offset order, and every small allocation lands in
    the run a linear scan over ``_runs`` picks — compaction included."""
    arena = fresh()
    live = []
    for op, value in ops:
        try:
            if op == "alloc":
                live.append(allocate_checked(arena, value))
            elif op == "entry":
                live.extend(arena.allocate_entry(value))
            elif op == "free":
                if live:
                    arena.free(live.pop(value % len(live)))
            else:
                arena.compact()
                assert_open_index_exact(arena)
                # The next allocation still takes the lowest open run.
                live.append(allocate_checked(arena, 512))
        except AllocationError:
            pass
        assert_open_index_exact(arena)


@given(
    st.sampled_from((64, 256, 512)),
    st.integers(1, 8),
    st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_class_for_matches_the_linear_rule(quantum, doublings, group):
    arena = Arena(CAPACITY, quantum=quantum,
                  max_small=quantum << doublings, group_classes=group)
    for nbytes in range(1, arena.max_small + 2):
        assert arena.class_for(nbytes) == linear_class_for(arena, nbytes)
