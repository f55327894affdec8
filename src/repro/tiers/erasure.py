"""Erasure-coded cluster remote memory (Hydra; paper Section IV-D).

Replication answers the paper's resilience problem at 3x memory.
Hydra's answer is k-of-n striping: a page is split into ``k`` data
fragments, ``m`` parity fragments are computed over them, and the
``n = k + m`` fragments land on ``n`` distinct remote nodes.  Any
``k`` surviving fragments reconstruct the page bit-identically, so the
scheme rides out ``m`` concurrent node losses at ``n / k`` memory
overhead (1.5x for the default 4+2) instead of ``r``x.

Two pieces, on the placement map and failure/recovery skeleton of
:class:`~repro.tiers.redundant.RedundantRemoteTier`:

* :class:`StripeCodec` — the pure math: a systematic Reed-Solomon code
  over GF(256) built from a Vandermonde matrix (``m = 1`` degenerates
  to plain XOR parity).  Real bytes in, real bytes out — the property
  tests drive it with random payloads and arbitrary surviving subsets.
* :class:`ErasureCodedRemoteTier` — the cascade tier: striped puts
  (one ``ec.encode`` span charging codec CPU, then a parallel fragment
  fan-out committed all-or-spill), reads served from the ``k`` data
  fragments, **degraded reads** reconstructing from any ``k`` surviving
  fragments inside the fault window, and **background reconstruction**
  re-striping lost fragments onto spare or readmitted nodes — both
  under ``ec.reconstruct`` spans the trace analyzer holds to its
  reconstruction invariants.
"""

from repro.hw.latency import GiB
from repro.net.errors import NetworkError
from repro.net.rdma import RemoteAccessError
from repro.tiers.redundant import PlacementMap, RedundantRemoteTier

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


class ErasureCodedRemoteTier(RedundantRemoteTier):
    """k-of-n striping over peer-donated slab areas."""

    name = "erasure"

    PROCESS_PREFIX = "ec-"

    #: Codec throughput per core: parity generation is XOR-heavy table
    #: lookups, decoding adds the matrix inversion.
    ENCODE_BANDWIDTH = 4.0 * GiB
    DECODE_BANDWIDTH = 2.5 * GiB

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
        self.codec = StripeCodec(data_shards, parity_shards)
        super().__init__(
            node, directory, PlacementMap(data_shards, parity_shards),
            slabs_per_target, reserve_tag, rng, tracker,
        )
        # Memory-overhead accounting: physical fragment bytes written
        # per logical byte stored (placement traffic, monotonic).
        self.logical_put_bytes = 0
        self.physical_put_bytes = 0
        self._read_seq = 0
        self.degraded_reconstructions = 0
        self.fragments_rebuilt = 0

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

    def _live_fragments(self, fragments):
        """``[(index, holder)]`` of the fragments on live nodes."""
        return sorted(
            (index, holder)
            for index, holder in fragments.items()
            if not self.directory.is_down(holder)
        )

    # -- swap-out path (stripe fan-out) --------------------------------------

    def put(self, page, nbytes):
        """Generator: encode, fan ``n`` fragments out, commit or spill."""
        frag = self._fragment_size(nbytes)
        targets = self._select_targets(frag)
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
            yield from self._spill(
                page, nbytes, winners,
                "stripe write reached {}/{} targets".format(
                    len(winners), len(targets)
                ),
            )
            return
        self.map.place(page.page_id, targets)
        self.cascade.record(page.page_id, self.name, nbytes)
        self.stats.puts.increment()
        self.stats.bytes_in.increment(frag * len(targets))
        self.logical_put_bytes += nbytes
        self.physical_put_bytes += frag * len(targets)

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
                yield from self._read_backup(
                    "fewer than {} live fragments for page {}".format(
                        self.codec.data_shards, page.page_id
                    )
                )
                return []
        yield from self.cascade.decompress(page)
        self.reads += 1
        self.stats.bytes_out.increment(stored)
        return []

    def _degraded_read(self, page, stored, frag, fragments):
        """Generator: reconstruct from any ``k`` survivors; True if served."""
        live = self._live_fragments(fragments)
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

    # -- failure and recovery handling ---------------------------------------

    def _repair_page(self, victim, page_id, target=None):
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
            live = self._live_fragments(fragments)
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

    def _top_up(self, node_id):
        """Generator: rebuild missing fragments onto the returned peer."""
        for page_id in self.map.incomplete():
            if (
                self.areas.get(node_id) is None
                or self.directory.is_down(node_id)
            ):
                return
            yield from self._repair_page(node_id, page_id, target=node_id)

    # -- reporting -----------------------------------------------------------

    def _scheme_columns(self):
        return {
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
