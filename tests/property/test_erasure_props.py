"""Property tests for redundant placement under failure schedules.

Two layers, both pure and hypothesis-drivable without a simulator:

* :class:`~repro.tiers.erasure.StripeCodec` — for *any* (k, m) shape
  and payload, every k-subset of the n = k + m fragments reconstructs
  the payload bit-identically, and any missing fragment rebuilt from
  survivors matches the original encoding exactly (so repair is
  idempotent and order-independent);
* :class:`~repro.tiers.redundant.PlacementMap` — the one map of both
  redundant tiers, over (k, m) shapes that include replica sets
  (k = 1: ``r`` copies are ``m = r - 1`` redundant fragments, repaired
  through ``add_holder`` as the replicated tier does).  Under
  arbitrary interleavings of placements, failures, repairs and
  recoveries capped at ``m`` concurrently down nodes, no page is ever
  lost, a page's holders stay distinct, the forward/reverse indexes
  agree, holders keep placement-then-repair order, and a crash
  *mid-reconstruction* (modelled by replaying ``set_fragment`` /
  ``add_holder`` for fragments a dead repair already restored) never
  duplicates a fragment index or lands two fragments of one page on
  one node.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiers.erasure import StripeCodec
from repro.tiers.redundant import PlacementMap

NODES = tuple("n{}".format(index) for index in range(8))


@st.composite
def codec_case(draw):
    """A code shape, a payload, and the index set of surviving fragments."""
    data_shards = draw(st.integers(1, 5))
    parity_shards = draw(st.integers(1, 4))
    total = data_shards + parity_shards
    payload = draw(st.binary(min_size=1, max_size=2048))
    survivors = draw(
        st.sets(
            st.integers(0, total - 1),
            min_size=data_shards,
            max_size=total,
        )
    )
    return data_shards, parity_shards, payload, sorted(survivors)


@given(codec_case())
@settings(max_examples=80)
def test_any_k_surviving_fragments_reconstruct_bit_identically(case):
    data_shards, parity_shards, payload, survivors = case
    codec = StripeCodec(data_shards, parity_shards)
    fragments = codec.encode(payload)
    assert len(fragments) == data_shards + parity_shards
    frag = codec.fragment_size(len(payload))
    assert all(len(fragment) == frag for fragment in fragments)
    subset = {index: fragments[index] for index in survivors}
    assert codec.reconstruct(subset, len(payload)) == payload


@given(codec_case())
@settings(max_examples=80)
def test_rebuilt_fragments_match_the_original_encoding(case):
    data_shards, parity_shards, payload, survivors = case
    codec = StripeCodec(data_shards, parity_shards)
    fragments = codec.encode(payload)
    subset = {index: fragments[index] for index in survivors[:data_shards]}
    for index in range(data_shards + parity_shards):
        if index in subset:
            continue
        rebuilt = codec.rebuild_fragment(subset, index, len(payload))
        assert rebuilt == fragments[index], index


@st.composite
def placement_workload(draw):
    """A (k, m) shape and an op sequence honouring the down cap of ``m``.

    ``k = 1`` is a replica set of ``m + 1`` copies.
    """
    data_shards = draw(st.integers(1, 4))
    parity_shards = draw(st.integers(1, 3))
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        ops.append(
            draw(
                st.one_of(
                    st.tuples(st.just("place"), st.integers(0, 30)),
                    st.tuples(st.just("fail"), st.integers(0, len(NODES) - 1)),
                    st.tuples(
                        st.just("recover"), st.integers(0, len(NODES) - 1)
                    ),
                )
            )
        )
    return data_shards, parity_shards, ops


def commit(pmap, page_id, index, node):
    """One repaired fragment, committed the way each tier commits it:
    a replica through ``add_holder``, a stripe fragment by index."""
    if pmap.data_shards == 1:
        return pmap.add_holder(page_id, node)
    return pmap.set_fragment(page_id, index, node)


def restripe(pmap, down, pages, order):
    """Instantly rebuild missing fragments where live capacity allows."""
    for page_id in pages:
        holders = set(pmap.holders(page_id))
        for index in pmap.missing(page_id):
            target = next(
                (
                    node
                    for node in NODES
                    if node not in down and node not in holders
                ),
                None,
            )
            if target is None:
                break
            if commit(pmap, page_id, index, target):
                holders.add(target)
                order[page_id].append(target)


def drive(pmap, ops):
    """Replay an op sequence; yields after every step for invariants.

    Also yields ``order``: each page's holders in the order they were
    placed, then repaired — what ``holders()`` must return.
    """
    down = set()
    placed = set()
    order = {}
    for op, value in ops:
        if op == "place":
            up = [node for node in NODES if node not in down]
            if len(up) < pmap.total_shards:
                continue  # the tier spills instead of short-striping
            pmap.place(value, up[:pmap.total_shards])
            placed.add(value)
            order[value] = up[:pmap.total_shards]
        elif op == "fail":
            node = NODES[value]
            if node in down or len(down) + 1 > pmap.parity_shards:
                continue  # the schedule keeps <= m nodes down
            down.add(node)
            degraded, lost = pmap.drop_node(node)
            assert lost == [], "lost {} with only {} down".format(
                lost, len(down)
            )
            for page_id in degraded:
                order[page_id].remove(node)
            restripe(pmap, down, degraded, order)
        else:
            node = NODES[value]
            if node in down:
                down.discard(node)
                restripe(pmap, down, pmap.incomplete(), order)
        yield down, placed, order


@given(placement_workload())
@settings(max_examples=60)
def test_no_page_lost_under_at_most_m_concurrent_failures(workload):
    data_shards, parity_shards, ops = workload
    pmap = PlacementMap(data_shards, parity_shards)
    down, placed = set(), set()
    for down, placed, _order in drive(pmap, ops):
        pass
    # Every page ever placed still holds >= k live fragments — enough
    # to reconstruct it bit-identically (the codec property above).
    for page_id in placed:
        live = [node for node in pmap.holders(page_id) if node not in down]
        assert len(live) >= data_shards, page_id


@given(placement_workload())
@settings(max_examples=60)
def test_fragment_indexes_stay_consistent(workload):
    data_shards, parity_shards, ops = workload
    pmap = PlacementMap(data_shards, parity_shards)
    for down, placed, order in drive(pmap, ops):
        # After *every* step: forward and reverse maps agree, no node
        # holds two fragments of one page, a down node holds nothing,
        # and holders keep placement-then-repair order.
        for node in NODES:
            for page_id in pmap.pages_on(node):
                assert node in pmap.fragments(page_id).values()
        for node in down:
            assert pmap.pages_on(node) == []
        for page_id in placed:
            assert page_id in pmap
            nodes = pmap.holders(page_id)
            assert len(set(nodes)) == len(nodes), page_id
            assert len(nodes) <= pmap.total_shards
            assert nodes == tuple(order[page_id]), page_id


@given(placement_workload())
@settings(max_examples=60)
def test_mid_reconstruction_crash_never_duplicates_fragments(workload):
    """A repair that dies mid-flight and is retried (or races a second
    repair for the same stripe) replays its commit for work already
    done; the map must reject every replay, so fragments are never
    lost *or* duplicated."""
    data_shards, parity_shards, ops = workload
    pmap = PlacementMap(data_shards, parity_shards)
    committed = []  # (page_id, index, node) accepted by the map
    down, placed = set(), set()
    for down, placed, order in drive(pmap, ops):
        committed = [
            (page_id, index, node)
            for page_id, index, node in committed
            if node in pmap.fragments(page_id).values()
        ]
        for page_id in pmap.incomplete():
            for index in pmap.missing(page_id):
                holders = set(pmap.holders(page_id))
                target = next(
                    (
                        node
                        for node in NODES
                        if node not in down and node not in holders
                    ),
                    None,
                )
                if target is not None and commit(
                    pmap, page_id, index, target
                ):
                    committed.append((page_id, index, target))
                    order[page_id].append(target)
    # Replay every commit as a crashed-and-retried repair would.
    for page_id, index, node in committed:
        assert not pmap.set_fragment(page_id, index, node)
        assert not pmap.add_holder(page_id, node)
        if pmap.fragments(page_id).get(index) == node:
            assert not pmap.set_fragment(page_id, index, "n-spare")
    for page_id in placed:
        nodes = pmap.holders(page_id)
        assert len(set(nodes)) == len(nodes)
