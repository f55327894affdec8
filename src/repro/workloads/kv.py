"""Key-value serving workloads: Memcached ETC, Redis, VoltDB.

Figure 8 and Figure 9 measure serving *throughput* under memory
pressure, so these workloads are closed-loop clients: each operation
touches the pages backing the requested key, then the next operation
issues immediately.  Throughput is recorded in fixed windows to produce
the Figure 9 timeline.

Profiles follow the published characterizations: Facebook's ETC pool is
~95% GETs with strong Zipf skew; Redis is modelled as a read-mostly
cache; VoltDB as an OLTP store with a heavy write mix and multi-page
transactions.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap
from operator import ge

from repro.mem.compression import CompressibilityProfile
from repro.workloads.patterns import ZipfSampler

#: Operations :meth:`KvWorkloadSpec.iter_operations` draws per block.
OPS_BLOCK = 1024


@dataclass
class KvWorkloadSpec:
    """Shape of one key-value serving workload.

    Implements the unified WorkloadSpec protocol
    (:mod:`repro.workloads.spec`) at both granularities: the
    operation-level ``iter_operations``/``ops_batch`` surface serving
    drivers need, and the page-level ``iter_accesses``/``as_batch``
    expansion (each operation becomes ``pages_per_key`` consecutive
    page touches) every paging consumer understands.
    """

    #: Open-loop hook of the WorkloadSpec protocol: the closed-loop
    #: Table 1 clients issue the next operation immediately.
    #: :mod:`repro.serve` wraps specs with a real arrival process.
    arrival_process = None

    name: str
    #: Keys in the store; each key's value occupies ``pages_per_key`` pages.
    keys: int = 4096
    pages_per_key: int = 1
    #: Fraction of operations that are reads.
    read_fraction: float = 0.95
    #: Zipf skew of key popularity.
    zipf_alpha: float = 1.0
    #: CPU time to serve one operation beyond memory access.
    compute_per_op: float = 6.0e-6
    #: Similar-popularity keys per contiguous address block (slab
    #: allocators co-locate same-class values; 1 = fully scattered).
    locality_block: int = 1
    compressibility: CompressibilityProfile = field(
        default_factory=lambda: CompressibilityProfile("kv", 2.0)
    )

    @property
    def pages(self):
        return self.keys * self.pages_per_key

    def _sampler(self, rng):
        # Clamp the slab-locality block to the key space: a store so
        # small that one slab covers it is simply one block (identical
        # to the old silently degenerate layout, but explicit — the
        # sampler now rejects locality_block > n).
        return ZipfSampler(self.keys, self.zipf_alpha, rng,
                           locality_block=min(self.locality_block, self.keys))

    def _op_drawer(self, zipf):
        """A ``draw(count)`` returning ``count`` operations from
        ``zipf``'s stream, in exactly the per-op draw order: the Zipf
        key draw, then the write coin.

        Inlines :meth:`ZipfSampler.sample
        <repro.workloads.patterns.ZipfSampler.sample>`, whose
        ``sample_many`` cannot serve here because the coin interleaves;
        the draws and the table walks run in C.  ``firsts`` maps a rank
        to its key's first page, with one sentinel entry for the rank
        ``n`` that ``bisect_left`` returns for a draw past the last
        cumulative weight (``sample`` clamps it to ``n - 1``).
        """
        random = zipf._rng.random
        cumulative = repeat(zipf._cumulative)
        scale = zipf._total.__mul__
        pages_per_key = self.pages_per_key
        firsts = [key * pages_per_key for key in zipf._mapping or range(zipf.n)]
        firsts.append(firsts[-1])
        rank_page = firsts.__getitem__
        read_fraction = self.read_fraction

        def draw(count):
            draws = list(starmap(random, repeat((), 2 * count)))
            return list(zip(
                map(rank_page, map(bisect_left, cumulative,
                                   map(scale, draws[0::2]))),
                repeat(pages_per_key),
                map(ge, draws[1::2], repeat(read_fraction)),
            ))

        return draw

    def _op_blocks(self, rng):
        draw = self._op_drawer(self._sampler(rng))
        while True:
            yield draw(OPS_BLOCK)

    def iter_operations(self, rng):
        """Infinite stream of ``(first_page_id, page_count, is_write)``.

        Drawn :data:`OPS_BLOCK` operations at a time, so a consumer
        that stops early leaves up to a block of draws taken from
        ``rng``: give the stream an RNG nothing else reads.
        """
        return chain.from_iterable(self._op_blocks(rng))

    def ops_batch(self, rng, count):
        """``count`` operations as a list, drawn in
        :meth:`iter_operations` order (key draw, then write coin, per
        operation).

        One-shot: every call builds a fresh sampler, so chunked callers
        should keep the iterator from :meth:`iter_operations` instead.
        """
        return self._op_drawer(self._sampler(rng))(count)

    def iter_accesses(self, rng):
        """Infinite page-granular stream: each operation expanded to
        its ``pages_per_key`` consecutive page touches (the write flag
        covers the whole burst), drawing from ``rng`` in exactly
        :meth:`iter_operations` order."""
        for first_page, count, is_write in self.iter_operations(rng):
            for offset in range(count):
                yield first_page + offset, is_write

    def as_batch(self, rng, length):
        """``length`` operations, page-expanded, as an
        :class:`~repro.workloads.batch.AccessBatch` (RNG-order
        identical to :meth:`iter_accesses`)."""
        from repro.workloads.batch import AccessBatch

        addresses = []
        writes = []
        for first_page, count, is_write in self.ops_batch(rng, length):
            for offset in range(count):
                addresses.append(first_page + offset)
                writes.append(is_write)
        return AccessBatch(addresses, writes)

    def with_overrides(self, **kwargs):
        from dataclasses import replace

        return replace(self, **kwargs)


def _profile(name, mean, sigma=0.4, incompressible=0.1):
    return CompressibilityProfile(
        name, mean_ratio=mean, sigma=sigma, incompressible_fraction=incompressible
    )


#: The three serving workloads of Table 1.
KV_WORKLOADS = {
    "memcached": KvWorkloadSpec(
        name="memcached",
        read_fraction=0.95,  # the ETC pool mix
        zipf_alpha=1.05,
        compute_per_op=5.0e-6,
        locality_block=8,  # slab pages hold same-class (co-hot) values
        compressibility=_profile("memcached", 2.2),
    ),
    "redis": KvWorkloadSpec(
        name="redis",
        read_fraction=0.9,
        zipf_alpha=1.0,
        compute_per_op=4.0e-6,
        compressibility=_profile("redis", 2.5),
    ),
    "voltdb": KvWorkloadSpec(
        name="voltdb",
        read_fraction=0.5,
        zipf_alpha=0.8,
        pages_per_key=2,  # row + index page per transaction
        compute_per_op=12.0e-6,
        compressibility=_profile("voltdb", 1.9),
    ),
}
