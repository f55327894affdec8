"""Property tests for replica bookkeeping under failure schedules.

The resilience guarantee the replicated tier is built on: with
replication factor ``r`` and instant repair, *no* schedule keeping
fewer than ``r`` nodes concurrently down can lose a page.  A replica
set is the ``k = 1`` case of :class:`~repro.tiers.redundant.PlacementMap`
(``r`` copies are ``m = r - 1`` redundant fragments, repaired through
``add_holder``).  Its transitions are pure, so hypothesis can drive
them through arbitrary interleavings of placements, failures, repairs
and recoveries without a simulator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiers.redundant import PlacementMap

NODES = tuple("n{}".format(index) for index in range(5))


def replica_map(factor):
    """A replica map: ``factor`` copies are a k = 1 placement."""
    return PlacementMap(1, factor - 1)


@st.composite
def failure_workload(draw):
    """A replication factor and an op sequence honouring the down cap."""
    factor = draw(st.integers(2, 4))
    ops = []
    for _ in range(draw(st.integers(1, 60))):
        ops.append(
            draw(
                st.one_of(
                    st.tuples(st.just("place"), st.integers(0, 30)),
                    st.tuples(st.just("fail"), st.integers(0, len(NODES) - 1)),
                    st.tuples(st.just("recover"), st.integers(0, len(NODES) - 1)),
                )
            )
        )
    return factor, ops


def repair(rmap, factor, down, page_ids):
    """Instantly restore redundancy where live capacity allows."""
    for page_id in page_ids:
        holders = set(rmap.holders(page_id))
        for node in NODES:
            if len(holders) >= factor:
                break
            if node in down or node in holders:
                continue
            assert rmap.add_holder(page_id, node)
            holders.add(node)


@given(failure_workload())
@settings(max_examples=60)
def test_no_page_lost_under_fewer_than_r_concurrent_failures(workload):
    factor, ops = workload
    rmap = replica_map(factor)
    down = set()
    placed = set()
    for op, value in ops:
        if op == "place":
            up = [node for node in NODES if node not in down]
            if len(up) < factor:
                continue  # write-all spills instead of under-replicating
            rmap.place(value, up[:factor])
            placed.add(value)
        elif op == "fail":
            node = NODES[value]
            if node in down or len(down) + 1 >= factor:
                continue  # the schedule keeps < factor nodes down
            down.add(node)
            orphans, lost = rmap.drop_node(node)
            assert lost == [], "lost {} with only {} down".format(lost, len(down))
            repair(rmap, factor, down, orphans)
        else:
            node = NODES[value]
            if node in down:
                down.discard(node)
                repair(rmap, factor, down, rmap.incomplete())
    # Every page that was ever placed (and never discarded) is still
    # held, and always by at least one live node.
    for page_id in placed:
        holders = rmap.holders(page_id)
        assert holders, "page {} vanished".format(page_id)
        assert any(node not in down for node in holders)


@given(failure_workload())
@settings(max_examples=60)
def test_holder_indexes_stay_consistent(workload):
    factor, ops = workload
    rmap = replica_map(factor)
    down = set()
    for op, value in ops:
        if op == "place":
            up = [node for node in NODES if node not in down]
            if len(up) >= factor:
                rmap.place(value, up[:factor])
        elif op == "fail":
            node = NODES[value]
            if node not in down and len(down) + 1 < factor:
                down.add(node)
                orphans, _lost = rmap.drop_node(node)
                repair(rmap, factor, down, orphans)
        else:
            down.discard(NODES[value])
    # Forward and reverse maps agree exactly.
    for node in NODES:
        for page_id in rmap.pages_on(node):
            assert node in rmap.holders(page_id)
    for node in down:
        assert rmap.pages_on(node) == []
