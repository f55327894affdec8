"""Shared fragmentation-accounting surface for allocator backends.

Every allocator in :mod:`repro.mem` — the memcached-style
:class:`~repro.mem.allocator.SlabAllocator`, the jemalloc-style
:class:`~repro.mem.arena.Arena` and the idealized
:class:`~repro.mem.arena.UniformAllocator` baseline — reports its state
through one :class:`FragmentationStats` snapshot, so experiments and
the balance control plane can compare backends without knowing their
internals.

Definitions (all byte counts, all at snapshot time):

* *payload* — what callers asked to store;
* *live* — what the blocks holding that payload actually cost
  (size-class rounding makes ``live >= payload``);
* *free* — bytes not committed to any live block;
* *metadata* — allocator bookkeeping (run headers, slab headers,
  free-list entries, unusable slack);
* *internal fragmentation* — ``1 - payload/live``: waste inside blocks;
* *external fragmentation* — ``1 - largest_free_extent/free``: how
  scattered the free bytes are (a pool with plenty of free bytes but no
  large contiguous extent cannot satisfy large requests);
* *allocatable* — bytes actually satisfiable for requests at the
  reporting grain, derived from the free-extent histogram.  This is the
  number harvest policies should plan against, not raw ``free``.
"""

from collections import Counter
from dataclasses import dataclass


def log2_bucket(nbytes):
    """Largest power of two ``<= nbytes`` (the histogram bucket floor)."""
    if nbytes < 1:
        raise ValueError("nbytes must be >= 1")
    return 1 << (int(nbytes).bit_length() - 1)


def build_histogram(sizes):
    """Bucket free-extent ``sizes`` by :func:`log2_bucket`.

    Returns a sorted tuple of ``(bucket_bytes, count)`` pairs — a
    JSON-friendly, mergeable summary of the free-space shape.
    """
    counts = {}
    # Free structures repeat a few region sizes many times over, so
    # bucket each distinct size once.
    for size, repeats in Counter(sizes).items():
        if size < 1:
            continue
        bucket = log2_bucket(size)
        counts[bucket] = counts.get(bucket, 0) + repeats
    return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class FragmentationStats:
    """One allocator's fragmentation accounting at a point in time."""

    capacity_bytes: int
    payload_bytes: int
    live_bytes: int
    free_bytes: int
    metadata_bytes: int
    largest_free_extent: int
    allocatable_bytes: int
    free_extent_histogram: tuple = ()

    @property
    def internal_fragmentation(self):
        """Wasted fraction inside live blocks (0 when empty)."""
        if self.live_bytes == 0:
            return 0.0
        return 1.0 - self.payload_bytes / self.live_bytes

    @property
    def external_fragmentation(self):
        """How scattered the free bytes are (0 when none are free)."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_extent / self.free_bytes

    @property
    def utilization(self):
        """Stored payload over pool capacity."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.payload_bytes / self.capacity_bytes

    @property
    def metadata_fraction(self):
        """Allocator bookkeeping over pool capacity."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.metadata_bytes / self.capacity_bytes

    @property
    def allocatable_ratio(self):
        """Satisfiable over raw free bytes (1.0 when nothing is free)."""
        if self.free_bytes == 0:
            return 1.0
        return self.allocatable_bytes / self.free_bytes

    def as_row(self):
        """Flat JSON-friendly dict (histogram as a list of pairs)."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "payload_bytes": self.payload_bytes,
            "live_bytes": self.live_bytes,
            "free_bytes": self.free_bytes,
            "metadata_bytes": self.metadata_bytes,
            "largest_free_extent": self.largest_free_extent,
            "allocatable_bytes": self.allocatable_bytes,
            "free_extent_histogram": [list(pair) for pair in self.free_extent_histogram],
            "internal_fragmentation": self.internal_fragmentation,
            "external_fragmentation": self.external_fragmentation,
            "utilization": self.utilization,
            "metadata_fraction": self.metadata_fraction,
            "allocatable_ratio": self.allocatable_ratio,
        }
