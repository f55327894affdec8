"""Compression in the cascade: a cascade-wide layer, and a pool tier.

Two distinct shapes the paper evaluates:

* :class:`CompressionLayer` — FastSwap's scheme (Section IV-H): every
  swapped-out page is compressed *once* on the way down, stored at
  multi-granularity charge in whatever tier takes it, and decompressed
  per fetched page on the way back.  Attached to the cascade, not to a
  tier, so the same compressed bytes flow through SM, remote and disk.
* :class:`CompressedPoolTier` — the zswap baseline: a bounded
  compressed RAM pool (zbud accounting) as a *tier of its own* in front
  of slower storage.  Incompressible pages are rejected down the
  cascade; pool pressure writes the oldest entries back to the next
  tier (decompressed to raw pages).
"""

from collections import OrderedDict

from repro.hw.latency import PAGE_SIZE
from repro.mem.compression import CompressionEngine, ZbudStore
from repro.tiers.base import DisplacedPage, Tier, TierFull


class CompressionLayer:
    """Cascade-wide page compression with store-model accounting."""

    def __init__(self, env, engine, store):
        self.env = env
        self.engine = engine
        self.store = store

    def compress_out(self, page):
        """Generator: compress ``page``; returns the charged stored size."""
        charged = self.store.charged_size(page.compressed_size)
        delay = self.engine.compress_time(page.size)
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        self.store.store(page)
        return charged

    def decompress_in(self, page):
        """Generator: charge decompression for a fetched page."""
        delay = self.engine.decompress_time(page.size)
        if not self.env.advance(delay):
            yield self.env.timeout(delay)


class CompressedPoolTier(Tier):
    """A bounded compressed RAM pool (zbud) as the top cascade tier."""

    name = "pool"

    def __init__(self, node, pool_bytes, engine=None):
        super().__init__()
        self.node = node
        self.env = node.env
        self.engine = engine or CompressionEngine(
            node.config.calibration.compression
        )
        self.pool_bytes = pool_bytes
        self.store = ZbudStore()
        self._pool = OrderedDict()  # page_id -> charged bytes
        self._pool_used = 0
        self.writebacks = 0
        self.rejects = 0

    def put(self, page, nbytes):
        """Generator: compress into the pool; write back oldest on
        pressure; reject incompressible pages down the cascade."""
        yield self.env.timeout(self.engine.compress_time(page.size))
        charged = self.store.charged_size(page.compressed_size)
        if charged >= PAGE_SIZE:
            # Incompressible page: reject it straight down a tier.
            self.rejects += 1
            raise TierFull("incompressible page")
        while self._pool_used + charged > self.pool_bytes and self._pool:
            yield from self._writeback_oldest()
        if self._pool_used + charged > self.pool_bytes:
            raise TierFull("compressed pool full")
        previous = self._pool.pop(page.page_id, None)
        if previous is not None:
            self._pool_used -= previous
        self._pool[page.page_id] = charged
        self._pool_used += charged
        self.store.store(page)
        self.cascade.record(page.page_id, self.name, charged)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(charged)

    def _writeback_oldest(self):
        page_id, charged = self._pool.popitem(last=False)
        self._pool_used -= charged
        # Decompress + push the raw page down the cascade.
        yield self.env.timeout(self.engine.decompress_time(PAGE_SIZE))
        victim = DisplacedPage(page_id)
        yield from self.cascade.place(victim, PAGE_SIZE, self.index + 1)
        self.writebacks += 1

    def get(self, page, label, meta):
        """Generator: decompress from the pool; the entry stays put
        (swap-cache semantics)."""
        yield self.env.timeout(self.engine.decompress_time(page.size))
        self.stats.bytes_out.increment(meta)
        return []

    def forget(self, page_id, label, meta):
        charged = self._pool.pop(page_id, None)
        if charged is not None:
            self._pool_used -= charged
