"""The unified workload-spec protocol (streamed + batched + open-loop).

Every workload family — ML sweeps, KV serving, recorded traces,
batch specs — implements one contract, so no consumer (runners, the
flat-path kernel, experiments, benchmarks) needs to know which family
it holds.  This module defines it — the **WorkloadSpec protocol**:

``name`` / ``pages`` / ``compressibility``
    Identification and sizing, unchanged.

``iter_accesses(rng)``
    The streamed contract: an iterator of ``(page_id, is_write)``
    pairs.  Finite for trace-shaped workloads (ML sweeps, recorded
    traces), infinite for serving workloads (each operation expanded to
    its page burst).

``as_batch(rng)`` / ``as_batch(rng, length)``
    The batched contract: the same reference string as an
    :class:`~repro.workloads.batch.AccessBatch`, drawing from ``rng``
    in exactly the order ``iter_accesses`` does, so streamed and
    batched runs of one seed are bit-identical.  Specs whose stream is
    infinite require ``length`` (the number of *operations* to
    materialize).

``arrival_process``
    The open-loop hook, consumed by :mod:`repro.serve`: ``None`` for
    closed-loop specs (accesses issue back to back — every Table 1
    workload), or an arrival-process object (see
    :mod:`repro.serve.arrivals`) whose inter-arrival gaps fill
    ``AccessBatch.gaps``.  Closed-loop consumers ignore it.

Operation-granular specs (the KV family) additionally keep
``iter_operations(rng)`` / ``ops_batch(rng, count)`` yielding
``(first_page_id, page_count, is_write)`` tuples — serving drivers
need operation boundaries that a flat page stream erases.
"""

__all__ = [
    "iter_accesses",
    "spec_batch",
]


def iter_accesses(spec, rng):
    """``spec``'s streamed reference string, protocol-dispatched."""
    method = getattr(spec, "iter_accesses", None)
    if method is not None:
        return method(rng)
    raise TypeError(
        "{!r} does not implement the WorkloadSpec protocol "
        "(no iter_accesses)".format(spec)
    )


def spec_batch(spec, rng, length=None):
    """``spec``'s reference string as an ``AccessBatch``.

    Prefers the spec's native ``as_batch`` (passing ``length`` only
    when given, so finite specs keep their one-argument signature);
    otherwise drains the streamed contract — always equivalent, just
    not faster to generate.
    """
    from repro.workloads.batch import AccessBatch

    method = getattr(spec, "as_batch", None)
    if method is None:
        return AccessBatch.from_pairs(iter_accesses(spec, rng))
    if length is None:
        return method(rng)
    return method(rng, length)
