"""Erasure-coded cluster remote memory (Hydra; paper Section IV-D).

Replication answers the paper's resilience problem at 3x memory.
Hydra's answer is k-of-n striping: a page is split into ``k`` data
fragments, ``m`` parity fragments are computed over them, and the
``n = k + m`` fragments land on ``n`` distinct remote nodes.  Any
``k`` surviving fragments reconstruct the page bit-identically, so the
scheme rides out ``m`` concurrent node losses at ``n / k`` memory
overhead (1.5x for the default 4+2) instead of ``r``x.

Three cooperating pieces:

* :class:`StripeCodec` — the pure math: a systematic Reed-Solomon code
  over GF(256) built from a Vandermonde matrix (``m = 1`` degenerates
  to plain XOR parity).  Real bytes in, real bytes out — the property
  tests drive it with random payloads and arbitrary surviving subsets.
* :class:`StripeMap` — pure fragment bookkeeping (page -> fragment
  holders, node -> fragments, crash/repair transitions), separated so
  hypothesis can drive it through failure schedules without a
  simulator, mirroring :class:`~repro.tiers.replicated.ReplicaMap`.
* :class:`ErasureCodedRemoteTier` — the cascade tier: striped puts
  (one ``ec.encode`` span charging codec CPU, then a parallel fragment
  fan-out committed all-or-spill), reads served from the ``k`` data
  fragments, **degraded reads** reconstructing from any ``k`` surviving
  fragments inside the fault window, and **background reconstruction**
  re-striping lost fragments onto spare or readmitted nodes — both
  under ``ec.reconstruct`` spans the trace analyzer holds to its
  reconstruction invariants.
"""

from repro.hw.latency import GiB, PAGE_SIZE
from repro.metrics.recovery import RecoveryTracker
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.net.retry import RetryPolicy
from repro.tiers.base import DisplacedPage, Tier, TierFull
from repro.tiers.remote import reserve_area

_TRANSIENT = (NetworkError, RemoteAccessError)


# -- GF(256) arithmetic -------------------------------------------------------
#
# The field of the AES polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d),
# generator 2.  Exp table doubled so products of logs index directly.

_GF_EXP = [0] * 512
_GF_LOG = [0] * 256
_value = 1
for _power in range(255):
    _GF_EXP[_power] = _value
    _GF_LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= 0x11D
for _power in range(255, 512):
    _GF_EXP[_power] = _GF_EXP[_power - 255]
del _value, _power


def _gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_pow(a, power):
    if power == 0:
        return 1
    if a == 0:
        return 0
    return _GF_EXP[(_GF_LOG[a] * power) % 255]


def _gf_inv(a):
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return _GF_EXP[255 - _GF_LOG[a]]


def _matmul(left, right):
    rows = len(left)
    inner = len(right)
    cols = len(right[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= _gf_mul(left[i][t], right[t][j])
            out[i][j] = acc
    return out


def _invert(matrix):
    """Gauss-Jordan inversion over GF(256)."""
    size = len(matrix)
    work = [list(row) + [int(i == j) for j in range(size)]
            for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(
            (row for row in range(col, size) if work[row][col]), None
        )
        if pivot is None:
            raise ValueError("matrix is singular over GF(256)")
        work[col], work[pivot] = work[pivot], work[col]
        inv = _gf_inv(work[col][col])
        work[col] = [_gf_mul(inv, item) for item in work[col]]
        for row in range(size):
            if row == col or not work[row][col]:
                continue
            factor = work[row][col]
            work[row] = [
                item ^ _gf_mul(factor, work[col][index])
                for index, item in enumerate(work[row])
            ]
    return [row[size:] for row in work]


class StripeCodec:
    """Systematic Reed-Solomon erasure code over GF(256).

    ``encode`` splits a payload into ``data_shards`` fragments and
    appends ``parity_shards`` parity fragments; ``reconstruct``
    recovers the payload bit-identically from *any*
    ``data_shards``-sized subset of the fragments.  The encoding
    matrix is a Vandermonde matrix normalized so its top ``k`` rows
    are the identity (data fragments are verbatim slices), which
    keeps every ``k``-row submatrix invertible — the standard
    construction Hydra builds on.
    """

    def __init__(self, data_shards, parity_shards):
        if data_shards < 1:
            raise ValueError("data_shards must be >= 1")
        if parity_shards < 1:
            raise ValueError("parity_shards must be >= 1")
        if data_shards + parity_shards > 256:
            raise ValueError("GF(256) supports at most 256 shards")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        vandermonde = [
            [_gf_pow(point, column) for column in range(data_shards)]
            for point in range(self.total_shards)
        ]
        top_inverse = _invert([row[:] for row in vandermonde[:data_shards]])
        self.matrix = _matmul(vandermonde, top_inverse)

    def fragment_size(self, nbytes):
        """Bytes per fragment for an ``nbytes`` payload (ceil split)."""
        return max(1, -(-nbytes // self.data_shards))

    def encode(self, data):
        """Split ``data`` into ``total_shards`` fragments (data first)."""
        frag = self.fragment_size(len(data))
        shards = [
            bytes(data[index * frag:(index + 1) * frag]).ljust(frag, b"\0")
            for index in range(self.data_shards)
        ]
        fragments = list(shards)
        for parity in range(self.parity_shards):
            row = self.matrix[self.data_shards + parity]
            out = bytearray(frag)
            for column, shard in enumerate(shards):
                coefficient = row[column]
                if not coefficient:
                    continue
                log_c = _GF_LOG[coefficient]
                for offset, value in enumerate(shard):
                    if value:
                        out[offset] ^= _GF_EXP[log_c + _GF_LOG[value]]
            fragments.append(bytes(out))
        return fragments

    def reconstruct(self, fragments, size):
        """Rebuild the original ``size``-byte payload.

        ``fragments`` maps fragment index -> fragment bytes; any
        ``data_shards`` entries suffice.  Raises :class:`ValueError`
        with fewer survivors or mismatched fragment lengths.
        """
        if len(fragments) < self.data_shards:
            raise ValueError(
                "need {} fragments, have {}".format(
                    self.data_shards, len(fragments)
                )
            )
        indices = sorted(fragments)[:self.data_shards]
        frag = len(fragments[indices[0]])
        if any(len(fragments[index]) != frag for index in indices):
            raise ValueError("fragments differ in size")
        if indices == list(range(self.data_shards)):
            shards = [fragments[index] for index in indices]
        else:
            decode = _invert([list(self.matrix[i]) for i in indices])
            shards = []
            for row in decode:
                out = bytearray(frag)
                for column, index in enumerate(indices):
                    coefficient = row[column]
                    if not coefficient:
                        continue
                    log_c = _GF_LOG[coefficient]
                    for offset, value in enumerate(fragments[index]):
                        if value:
                            out[offset] ^= _GF_EXP[log_c + _GF_LOG[value]]
                shards.append(bytes(out))
        return b"".join(shards)[:size]

    def rebuild_fragment(self, fragments, index, size):
        """Recompute one missing fragment from any ``k`` survivors."""
        data = self.reconstruct(fragments, size)
        return self.encode(data)[index]


class StripeMap:
    """Pure stripe bookkeeping: which node holds which fragment.

    The invariants the property tests pin: every fragment index of a
    page has at most one holder, a page's fragments live on distinct
    nodes, and a page leaves the map only when fewer than
    ``data_shards`` fragments survive (:meth:`drop_node` reports it as
    lost) or it is removed outright.
    """

    def __init__(self, data_shards, parity_shards):
        if data_shards < 1 or parity_shards < 1:
            raise ValueError("shard counts must be >= 1")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        self._fragments = {}  # page_id -> {fragment index: node_id}
        self._by_node = {}  # node_id -> set of (page_id, index)

    def __len__(self):
        return len(self._fragments)

    def __contains__(self, page_id):
        return page_id in self._fragments

    def fragments(self, page_id):
        return dict(self._fragments.get(page_id, ()))

    def holders(self, page_id):
        return sorted(set(self._fragments.get(page_id, {}).values()))

    def pages_on(self, node_id):
        return sorted({
            page_id for page_id, _index in self._by_node.get(node_id, ())
        })

    def missing(self, page_id):
        held = self._fragments.get(page_id)
        if held is None:
            return []
        return [index for index in range(self.total_shards)
                if index not in held]

    def place(self, page_id, holders):
        """Record a full stripe: ``holders[i]`` gets fragment ``i``."""
        holders = tuple(holders)
        if len(holders) != self.total_shards:
            raise ValueError(
                "a stripe needs {} holders, got {}".format(
                    self.total_shards, len(holders)
                )
            )
        if len(set(holders)) != len(holders):
            raise ValueError("stripe holders must be distinct nodes")
        self.remove_page(page_id)
        self._fragments[page_id] = dict(enumerate(holders))
        for index, node_id in enumerate(holders):
            self._by_node.setdefault(node_id, set()).add((page_id, index))

    def set_fragment(self, page_id, index, node_id):
        """A reconstruction rebuilt fragment ``index`` onto ``node_id``."""
        held = self._fragments.get(page_id)
        if held is None or not 0 <= index < self.total_shards:
            return False
        if index in held or node_id in held.values():
            return False  # never duplicate a fragment or double-load a node
        held[index] = node_id
        self._by_node.setdefault(node_id, set()).add((page_id, index))
        return True

    def remove_page(self, page_id):
        for index, node_id in self._fragments.pop(page_id, {}).items():
            entries = self._by_node.get(node_id)
            if entries is not None:
                entries.discard((page_id, index))

    def drop_node(self, node_id):
        """A holder died; returns ``(degraded, lost)`` page-id lists.

        Degraded pages lost fragments but keep at least ``data_shards``
        and should be re-striped; lost pages fell below the threshold
        and leave the map entirely.
        """
        degraded, lost = [], []
        for page_id, index in sorted(self._by_node.pop(node_id, ())):
            held = self._fragments[page_id]
            del held[index]
            if len(held) >= self.data_shards:
                if not degraded or degraded[-1] != page_id:
                    degraded.append(page_id)
            else:
                self.remove_page(page_id)
                lost.append(page_id)
        return degraded, lost

    def under_striped(self):
        """Page ids currently missing at least one fragment."""
        return sorted(
            page_id
            for page_id, held in self._fragments.items()
            if len(held) < self.total_shards
        )


class ErasureCodedRemoteTier(Tier):
    """k-of-n striping over peer-donated slab areas."""

    name = "erasure"

    #: Per-page software cost on the remote path (work-request build +
    #: completion handling), charged once per operation.
    REMOTE_PER_PAGE_OVERHEAD = 1.2e-6

    #: Codec throughput per core: parity generation is XOR-heavy table
    #: lookups, decoding adds the matrix inversion.
    ENCODE_BANDWIDTH = 4.0 * GiB
    DECODE_BANDWIDTH = 2.5 * GiB

    #: Backoff applied while waiting for a recovered peer to finish
    #: re-registering its pools before re-admitting it as a target.
    READMIT_POLICY = RetryPolicy(
        max_attempts=6, base_delay=1e-4, multiplier=4.0, max_delay=0.05
    )

    def __init__(
        self,
        node,
        directory,
        data_shards=4,
        parity_shards=2,
        slabs_per_target=24,
        reserve_tag="ec-slab",
        rng=None,
        tracker=None,
    ):
        super().__init__()
        self.node = node
        self.env = node.env
        self.directory = directory
        self.codec = StripeCodec(data_shards, parity_shards)
        self.map = StripeMap(data_shards, parity_shards)
        self.slabs_per_target = slabs_per_target
        self.reserve_tag = reserve_tag
        self._rng = rng
        self.tracker = tracker or RecoveryTracker()
        self.tracker.clock = lambda: self.env.now
        self.areas = {}  # node_id -> RemoteArea
        self._listening = False
        self._repairs = []
        # Memory-overhead accounting: physical fragment bytes written
        # per logical byte stored (placement traffic, monotonic).
        self.logical_put_bytes = 0
        self.physical_put_bytes = 0
        # Counters for reports and tests.
        self.reads = 0
        self._read_seq = 0
        self.degraded_reconstructions = 0
        self.fragments_rebuilt = 0
        self.fallback_reads = 0
        self.rebuilds = 0

    @property
    def data_shards(self):
        return self.codec.data_shards

    @property
    def parity_shards(self):
        return self.codec.parity_shards

    @property
    def overhead_x(self):
        """Measured physical bytes per logical byte stored."""
        if not self.logical_put_bytes:
            return self.codec.total_shards / self.codec.data_shards
        return self.physical_put_bytes / self.logical_put_bytes

    def _fragment_size(self, nbytes):
        return self.codec.fragment_size(nbytes)

    def _encode_time(self, nbytes):
        return nbytes / self.ENCODE_BANDWIDTH

    def _decode_time(self, nbytes):
        return nbytes / self.DECODE_BANDWIDTH

    # -- setup ---------------------------------------------------------------

    def setup(self):
        """Generator: reserve areas on live peers, hook failure events."""
        injector = getattr(self.directory, "injector", None)
        if injector is not None and not self._listening:
            injector.on_crash(self._on_node_crash)
            injector.on_recover(self._on_node_recover)
            self._listening = True
        for peer in self.directory.peers_of(self.node.node_id):
            if self.directory.is_down(peer):
                continue
            yield from reserve_area(self, peer)

    # -- swap-out path (stripe fan-out) --------------------------------------

    def put(self, page, nbytes):
        """Generator: encode, fan ``n`` fragments out, commit or spill."""
        frag = self._fragment_size(nbytes)
        targets = self._select_targets(frag)
        if targets is None:
            raise TierFull(
                "{}: fewer than {} live areas with {} free bytes".format(
                    self.name, self.codec.total_shards, frag
                )
            )
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "ec.encode",
                page=page.page_id,
                k=self.codec.data_shards,
                m=self.codec.parity_shards,
                nbytes=nbytes,
            )
        encode = self._encode_time(nbytes)
        if not self.env.advance(encode):
            yield self.env.timeout(encode)
        if tracer.enabled:
            tracer.end(span, ok=True)
        winners = yield from self._gather(
            targets, frag, True, "stripe:{}".format(page.page_id),
            key=page.page_id,
        )
        if len(winners) < len(targets):
            # Partial failure: roll back, never commit an under-striped
            # page (a short stripe silently weakens the fault budget).
            for target in winners:
                area = self.areas.get(target)
                if area is not None:
                    area.release(page.page_id)
            self.stats.failovers.increment()
            if not self.cascade.failover.spill_on_failure:
                raise RemoteAccessError(
                    "stripe write reached {}/{} targets".format(
                        len(winners), len(targets)
                    )
                )
            yield from self.cascade.place(page, nbytes, self.index + 1)
            return
        self.map.place(page.page_id, targets)
        self.cascade.record(page.page_id, self.name, nbytes)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(frag * len(targets))
        self.logical_put_bytes += nbytes
        self.physical_put_bytes += frag * len(targets)

    def _select_targets(self, frag):
        live = sorted(
            (
                area
                for area in self.areas.values()
                if area.can_fit(frag)
                and not self.directory.is_down(area.node_id)
            ),
            key=lambda area: (-area.free_bytes, area.node_id),
        )
        if len(live) < self.codec.total_shards:
            return None
        return [area.node_id for area in live[: self.codec.total_shards]]

    # -- swap-in path --------------------------------------------------------

    def get(self, page, label, meta):
        """Generator: read the ``k`` data fragments; degrade to parity.

        The healthy path gathers the systematic (data) fragments — no
        decoding needed.  If any data-fragment holder is missing,
        down, or fails mid-read, the degraded path reconstructs from
        any ``k`` surviving fragments under an ``ec.reconstruct``
        span; only when fewer than ``k`` survive does the read fall to
        the disk backup.
        """
        stored = meta
        frag = self._fragment_size(stored)
        fragments = self.map.fragments(page.page_id)
        data_holders = []
        degraded = False
        for index in range(self.codec.data_shards):
            holder = fragments.get(index)
            if holder is None or self.directory.is_down(holder):
                degraded = True
                break
            data_holders.append(holder)
        if not degraded:
            if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
                yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
            try:
                yield from self._read_fragments(
                    page.page_id, data_holders, frag
                )
            except _TRANSIENT:
                self.stats.failovers.increment()
                degraded = True
        if degraded:
            served = yield from self._degraded_read(
                page, stored, frag, fragments
            )
            if not served:
                # Fewer than k fragments survive (or the degraded read
                # itself failed): the degraded disk-backup path.
                self.stats.failovers.increment()
                if not self.cascade.failover.spill_on_failure:
                    raise RemoteAccessError(
                        "fewer than {} live fragments for page {}".format(
                            self.codec.data_shards, page.page_id
                        )
                    )
                self.fallback_reads += 1
                yield from self.node.hdd.read(
                    self.node.alloc_disk_span(0), PAGE_SIZE
                )
                return []
        yield from self.cascade.decompress(page)
        self.reads += 1
        self.stats.bytes_out.increment(stored)
        return []

    def _degraded_read(self, page, stored, frag, fragments):
        """Generator: reconstruct from any ``k`` survivors; True if served."""
        live = sorted(
            (index, holder)
            for index, holder in fragments.items()
            if not self.directory.is_down(holder)
        )
        if len(live) < self.codec.data_shards:
            return False
        chosen = live[: self.codec.data_shards]
        tracer = self.env.tracer
        began = self.env.now
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "ec.reconstruct",
                mode="degraded-read",
                page=page.page_id,
                missing=self.codec.total_shards - len(live),
            )
        if not self.env.advance(self.REMOTE_PER_PAGE_OVERHEAD):
            yield self.env.timeout(self.REMOTE_PER_PAGE_OVERHEAD)
        try:
            yield from self._read_fragments(
                page.page_id, [holder for _index, holder in chosen], frag
            )
        except _TRANSIENT:
            if tracer.enabled:
                tracer.end(span, ok=False)
            return False
        decode = self._decode_time(stored)
        if not self.env.advance(decode):
            yield self.env.timeout(decode)
        if tracer.enabled:
            tracer.end(span, ok=True)
            tracer.latency("ec", "read.degraded", self.env.now - began)
        self.tracker.degraded_reads.increment()
        self.degraded_reconstructions += 1
        return True

    def _read_fragments(self, page_id, holders, frag):
        # The sequence number keeps concurrent reads of the same
        # fragment (a degraded read racing a repair's source read) on
        # distinct trace tracks.
        self._read_seq += 1
        track = "ec-read:{}:{}".format(self._read_seq, page_id)
        landed = yield from self._gather(holders, frag, False, track)
        if len(landed) < len(holders):
            raise RemoteAccessError(
                "fragment read for page {} failed".format(page_id)
            )

    # -- failure handling ----------------------------------------------------

    def _on_node_crash(self, node_id):
        area = self.areas.pop(node_id, None)
        degraded, lost = self.map.drop_node(node_id)
        if area is None and not degraded and not lost:
            return
        self.tracker.begin_repair(node_id)
        if lost:
            self._record_lost(lost)
        self._repairs.append(
            self.env.process(
                self._reconstruct(node_id, degraded),
                name="ec-repair:" + node_id,
            )
        )

    def _record_lost(self, page_ids):
        self.tracker.pages_lost.increment(len(page_ids))
        if self.cascade is not None and self.cascade.failover.rebuild_on_failure:
            self._repairs.append(
                self.env.process(
                    self._rebuild(page_ids),
                    name="ec-rebuild:{}".format(len(page_ids)),
                )
            )

    def _reconstruct(self, victim, page_ids):
        """Generator: background re-striping of the victim's fragments."""
        for page_id in page_ids:
            yield from self._restripe_page(victim, page_id)
        self.tracker.complete_repair(victim)

    def _restripe_page(self, victim, page_id, target=None):
        """Generator: rebuild missing fragments of one page.

        With ``target=None`` (crash repair) every missing fragment goes
        to a freely chosen spare; with a ``target`` (readmission
        top-up) at most one fragment is rebuilt onto that node — a
        stripe never doubles up on a holder.
        """
        label, meta = self.cascade.location(page_id)
        if label != self.name:
            return
        stored = meta
        frag = self._fragment_size(stored)
        for index in self.map.missing(page_id):
            fragments = self.map.fragments(page_id)
            live = sorted(
                (held_index, holder)
                for held_index, holder in fragments.items()
                if not self.directory.is_down(holder)
            )
            if len(live) < self.codec.data_shards:
                return  # not reconstructible until a holder returns
            if target is None:
                destination = self._pick_spare(frag, exclude=fragments.values())
            else:
                area = self.areas.get(target)
                if (
                    area is None
                    or self.directory.is_down(target)
                    or target in fragments.values()
                    or not area.can_fit(frag)
                ):
                    return
                destination = target
            if destination is None:
                return  # stays under-striped until a peer returns
            sources = live[: self.codec.data_shards]
            tracer = self.env.tracer
            began = self.env.now
            span = None
            if tracer.enabled:
                span = tracer.begin(
                    "ec.reconstruct",
                    mode="repair",
                    victim=victim,
                    page=page_id,
                    index=index,
                    source=sources[0][1],
                    target=destination,
                )
            try:
                yield from self._read_fragments(
                    page_id, [holder for _i, holder in sources], frag
                )
                decode = self._decode_time(stored)
                if not self.env.advance(decode):
                    yield self.env.timeout(decode)
                yield from self._one_sided(destination, frag, write=True)
            except _TRANSIENT:
                if tracer.enabled:
                    tracer.end(span, ok=False)
                continue
            if tracer.enabled:
                tracer.end(span, ok=True)
                tracer.latency("ec", "reconstruct", self.env.now - began)
            # Re-verify before committing: the cluster kept running
            # while the fragment reads and the write were in flight, and
            # the page may have been forgotten and re-striped meanwhile.
            area = self.areas.get(destination)
            if (
                area is None
                or self.directory.is_down(destination)
                or self.cascade.location(page_id)[0] != self.name
                or self.map.fragments(page_id) != fragments
                or not area.reserve(page_id, frag)
            ):
                continue
            if self.map.set_fragment(page_id, index, destination):
                self.fragments_rebuilt += 1
                self.tracker.pages_re_replicated.increment()
            else:
                area.release(page_id)
            if target is not None:
                return  # one fragment per readmitted node per page

    def _rebuild(self, page_ids):
        """Generator: re-place wholly lost pages below, from the backup."""
        for page_id in page_ids:
            label, meta = self.cascade.location(page_id)
            if label != self.name:
                continue
            stored = meta
            yield from self.node.hdd.read(self.node.alloc_disk_span(0), PAGE_SIZE)
            yield from self.cascade.place(
                DisplacedPage(page_id, stored), stored, self.index + 1
            )
            self.rebuilds += 1

    def _pick_spare(self, frag, exclude=()):
        exclude = set(exclude)
        live = sorted(
            (
                area
                for area in self.areas.values()
                if area.node_id not in exclude
                and area.can_fit(frag)
                and not self.directory.is_down(area.node_id)
            ),
            key=lambda area: (-area.free_bytes, area.node_id),
        )
        return live[0].node_id if live else None

    # -- recovery handling ---------------------------------------------------

    def _on_node_recover(self, node_id):
        if node_id == self.node.node_id or node_id in self.areas:
            return
        if node_id not in self.directory.peers_of(self.node.node_id):
            return
        self._repairs.append(
            self.env.process(
                self._readmit(node_id), name="ec-readmit:" + node_id
            )
        )

    def _readmit(self, node_id):
        """Generator: re-reserve an area on a recovered peer, with backoff,
        then re-stripe under-striped pages onto it."""
        policy = self.READMIT_POLICY
        for attempt in range(1, policy.max_attempts + 1):
            if self.directory.is_down(node_id):
                return
            admitted = yield from reserve_area(self, node_id)
            if admitted:
                self.tracker.nodes_recovered.increment()
                yield from self._top_up_stripes(node_id)
                return
            if attempt < policy.max_attempts:
                yield self.env.timeout(policy.delay(attempt, self._rng))

    def _top_up_stripes(self, node_id):
        """Generator: rebuild missing fragments onto the returned peer."""
        for page_id in self.map.under_striped():
            if (
                self.areas.get(node_id) is None
                or self.directory.is_down(node_id)
            ):
                return
            yield from self._restripe_page(node_id, page_id, target=node_id)

    # -- bookkeeping ---------------------------------------------------------

    def forget(self, page_id, label, meta):
        held = self.map.fragments(page_id)
        for _index, holder in held.items():
            area = self.areas.get(holder)
            if area is not None:
                area.release(page_id)
        self.map.remove_page(page_id)

    # -- reporting -----------------------------------------------------------

    def snapshot(self):
        row = self.stats.row()
        row.update(self.tracker.snapshot())
        row.update(
            {
                "scheme": "ec({}+{})".format(
                    self.codec.data_shards, self.codec.parity_shards
                ),
                "data_shards": self.codec.data_shards,
                "parity_shards": self.codec.parity_shards,
                "replication": None,
                "overhead_x": self.overhead_x,
                "degraded_reconstructions": self.degraded_reconstructions,
                "fragments_rebuilt": self.fragments_rebuilt,
                "rebuilds": self.rebuilds,
            }
        )
        return row
