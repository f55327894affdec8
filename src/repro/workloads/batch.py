"""Pre-materialized access batches (the fast half of the two-speed engine).

The one-at-a-time workload contract — ``spec.iter_accesses(rng)``
yielding ``(page_id, is_write)`` pairs — costs a generator resume per
access, which is fine for driving the event engine but dominates
wall-clock once the flat-path kernel (:mod:`repro.sim.flatpath`) makes
the access itself cheap.  An :class:`AccessBatch` is the batched
contract: plain parallel arrays of addresses and write flags (plus
optional open-loop inter-arrival gaps) that generators fill up front
and the kernel indexes without any per-access Python frames.

Equivalence rule: a spec's ``as_batch(rng)`` must consume ``rng`` in
exactly the order ``iter_accesses(rng)`` does, so batched and streamed
runs of the same seed see the same reference string.  Specs without an
``as_batch`` are handled by :func:`materialize`, which simply drains
the stream — always equivalent, just not faster to generate.
"""

from dataclasses import dataclass, field

from repro.mem.compression import CompressibilityProfile
from repro.workloads.patterns import ZipfSampler
from repro.workloads.spec import spec_batch

__all__ = ["AccessBatch", "ZipfBatchSpec", "flatten_requests", "materialize"]


@dataclass
class AccessBatch:
    """A page-reference string as parallel arrays.

    ``addresses[i]`` / ``writes[i]`` describe access ``i``; ``gaps``
    (when set) holds the open-loop think time *before* access ``i``.
    Closed-loop workloads leave ``gaps`` as ``None`` — the accesses
    issue back to back, which is what the flat-path kernel bulks.
    """

    addresses: list
    writes: list
    #: Optional per-access inter-arrival gap in seconds (open-loop).
    gaps: list = None

    def __post_init__(self):
        if len(self.addresses) != len(self.writes):
            raise ValueError(
                "addresses ({}) and writes ({}) must be parallel".format(
                    len(self.addresses), len(self.writes)
                )
            )
        if self.gaps is not None and len(self.gaps) != len(self.addresses):
            raise ValueError(
                "gaps ({}) must be parallel to addresses ({})".format(
                    len(self.gaps), len(self.addresses)
                )
            )

    def __len__(self):
        return len(self.addresses)

    @classmethod
    def from_pairs(cls, pairs):
        """Materialize a ``(page_id, is_write)`` stream into a batch."""
        addresses = []
        writes = []
        for page_id, is_write in pairs:
            addresses.append(page_id)
            writes.append(is_write)
        return cls(addresses, writes)

    def pairs(self):
        """The batch as the streamed contract (for cross-checks)."""
        return zip(self.addresses, self.writes)


def flatten_requests(operations):
    """Expand ``(first_page, page_count, is_write)`` operations into one
    :class:`AccessBatch` plus per-request bounds.

    Returns ``(batch, bounds)`` where request ``r`` covers accesses
    ``[bounds[r], bounds[r + 1])`` of the batch.  Serving drivers build
    the batch once per tenant class and hand
    :meth:`~repro.swap.base.VirtualMemory.run_batch` a ``(start, stop)``
    slice per request — no per-request array allocation on the hot
    path.  The page expansion (consecutive pages, the write flag
    covering the whole burst) matches
    :meth:`~repro.workloads.kv.KvWorkloadSpec.as_batch` exactly.
    """
    addresses = []
    writes = []
    bounds = [0]
    for first_page, count, is_write in operations:
        addresses.extend(range(first_page, first_page + count))
        writes.extend([is_write] * count)
        bounds.append(len(addresses))
    return AccessBatch(addresses, writes), bounds


def materialize(spec, rng, length=None):
    """``spec``'s reference string as an :class:`AccessBatch`.

    Protocol dispatch (see :mod:`repro.workloads.spec`): uses the
    spec's native ``as_batch`` when it has one; otherwise drains the
    streamed ``iter_accesses()`` — so duck-typed specs batch for free.
    ``length`` (operation count) is required by specs whose stream is
    infinite and ignored by the rest.
    """
    return spec_batch(spec, rng, length)


@dataclass
class ZipfBatchSpec:
    """A batch-first pure-Zipf paging workload.

    The simplest workload that exercises the batched contract end to
    end: addresses drawn with :meth:`ZipfSampler.sample_many`, writes
    drawn in bulk after them.  ``trace()`` replays the *same* batch, so
    streamed and batched runs are equivalent by construction.  Used by
    the flat-path benchmarks and the open-loop serving scenario's
    stepping stones; not part of the paper's Table 1.
    """

    #: Open-loop hook of the WorkloadSpec protocol (closed-loop here).
    arrival_process = None

    name: str = "zipf"
    pages: int = 4096
    #: Total accesses drawn.
    length: int = 16384
    zipf_alpha: float = 0.9
    write_fraction: float = 0.2
    compute_per_access: float = 1.0e-6
    compressibility: CompressibilityProfile = field(
        default_factory=lambda: CompressibilityProfile("zipf", 2.5)
    )

    def as_batch(self, rng):
        sampler = ZipfSampler(self.pages, self.zipf_alpha, rng)
        addresses = sampler.sample_many(self.length)
        random = rng.random
        write_fraction = self.write_fraction
        writes = [random() < write_fraction for _ in range(self.length)]
        return AccessBatch(addresses, writes)

    def iter_accesses(self, rng):
        return self.as_batch(rng).pairs()

    def with_overrides(self, **kwargs):
        from dataclasses import replace

        return replace(self, **kwargs)
