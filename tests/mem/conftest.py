"""Reference checks for the arena's open-run index.

The arena finds the run for a small allocation through an index of the
runs that have a free region.  These helpers recompute what that index
must hold, and which run the old linear scan over ``_runs`` picked, so
unit and property tests can compare the two after every step.
"""


def linear_class_for(arena, nbytes):
    """The linear size-class rule ``Arena.class_for`` must match."""
    for chunk_size in arena.size_classes:
        if nbytes <= chunk_size:
            return chunk_size
    return None


def reference_run(arena, chunk_size):
    """The run a linear scan picks: the lowest-offset one with a free
    region, or ``None`` when a new run must be carved."""
    candidates = [run for run in arena._runs[chunk_size] if run.free_indices]
    return min(candidates, key=lambda run: run.extent.offset, default=None)


def assert_open_index_exact(arena):
    """The index holds exactly the runs with a free region, by offset."""
    for chunk_size, runs in arena._runs.items():
        expected = sorted(
            run.extent.offset for run in runs if run.free_indices
        )
        assert arena._open_offsets[chunk_size] == expected, chunk_size
        open_runs = arena._open_runs[chunk_size]
        assert sorted(open_runs) == expected, chunk_size
        for offset, run in open_runs.items():
            assert run.extent.offset == offset
            assert run.chunk_size == chunk_size
            assert run in runs


def allocate_checked(arena, nbytes):
    """``arena.allocate`` plus a check that a small block lands in the
    run the reference scan picks (or in a freshly carved run)."""
    chunk_size = arena.class_for(nbytes)
    expected = None if chunk_size is None else reference_run(arena, chunk_size)
    before = set(arena._runs[chunk_size]) if chunk_size is not None else ()
    allocation = arena.allocate(nbytes)
    if chunk_size is not None:
        if expected is not None:
            assert allocation.run is expected
        else:
            assert allocation.run not in before
    return allocation
