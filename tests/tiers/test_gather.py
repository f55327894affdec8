"""``Tier._gather`` must be invisible: a fan-out run in place.

A gather's transfers all need the caller's one NIC lane (RX for
fragment reads, TX for stripe and replica writes), so as child
processes they would queue on it and land one after another.  When
``Tier._chain`` finds nothing else able to act before the last lands,
the caller runs that chain itself.  The reference patches ``_chain`` to
refuse (:func:`reference_gather`), so every gather spawns its children,
and ``Fabric.send_now`` to refuse (``reference_send``), so every child's
transfer takes its lanes; each scenario below must log the same
``(now, label)`` sequence and end in the same state (tier rows, fabric,
NIC and queue-pair counters, area usage, stripe and replica maps) under
both.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.cluster import DisaggregatedCluster
from repro.experiments.runner import default_cluster_config
from repro.hw.latency import KiB
from repro.mem.page import make_pages
from repro.net.errors import NetworkError
from repro.sim.engine import Environment
from repro.swap.factory import make_swap_backend
from repro.tiers.base import Tier
from repro.tiers.remote import RemoteArea
from repro.trace import runtime
from tests.net.test_send_now import reference_send

BACKENDS = ("ec-remote", "replicated-remote")


@contextmanager
def reference_gather():
    """``Tier._chain`` that always refuses: every gather spawns."""
    saved = Tier._chain
    Tier._chain = lambda self, targets, nbytes, write: None
    try:
        yield
    finally:
        Tier._chain = saved


@contextmanager
def counted_gathers():
    """Count gathers run in place (``inline``) and spawned
    (``spawned``), those whose lane order differs from their target
    order (``reordered``) and those refused only because something is
    due before the chain ends or the run stops first (``cut``)."""
    saved_chain, saved_can = Tier._chain, Environment.can_advance_to
    tally = Counter()

    def chain(self, targets, nbytes, write):
        plan = saved_chain(self, targets, nbytes, write)
        tally["spawned" if plan is None else "inline"] += 1
        if plan is not None and [t for t, _qp in plan] != list(targets):
            tally["reordered"] += 1
        return plan

    def can_advance_to(self, when):
        moved = saved_can(self, when)
        tally["cut"] += not moved
        return moved

    Tier._chain = chain
    Environment.can_advance_to = can_advance_to
    try:
        yield tally
    finally:
        Tier._chain = saved_chain
        Environment.can_advance_to = saved_can


def build(backend_name, caller, alloc_policy="slab"):
    config = default_cluster_config(
        seed=11, num_nodes=8, replication_factor=3, alloc_policy=alloc_policy
    )
    cluster = DisaggregatedCluster.build(config)
    node = cluster.nodes()[caller]
    backend = make_swap_backend(
        backend_name, node, cluster, rng=cluster.rng.stream("backend")
    )
    cluster.run_process(backend.setup())
    return cluster, node, backend


def end_state(cluster, backend, pages):
    tier = backend.tiers[0]
    fabric = cluster.fabric
    nodes = cluster.nodes()
    return {
        "now": cluster.env.now,
        "rows": backend.tier_breakdown(),
        "fabric": (fabric.total_bytes, fabric.total_messages),
        "nics": [
            (nic.bytes_sent, nic.bytes_received, nic.messages_sent)
            for nic in (fabric.nic(node.node_id) for node in nodes)
        ],
        "qps": sorted(
            (node.node_id, peer, qp.ops_completed, qp.state)
            for node in nodes
            for peer, qp in node.device._qps.items()
        ),
        "areas": sorted(
            (peer, area.used_bytes) for peer, area in tier.areas.items()
        ),
        "maps": [
            (tier.map.holders(page.page_id), backend.location(page.page_id))
            for page in pages
        ],
    }


def observe(backend_name, caller=0, chaos=(), prepare=None, chunk=None,
            alloc_policy="slab", pages=10, reads=6, origin=0.0):
    """Swap ``pages`` out and the first ``reads`` back in beside the
    ``chaos`` processes, then let repairs run; return the ``(now,
    label)`` log and the end state.  ``chunk`` drives the run through
    ``run(until=now + chunk)`` calls instead of one ``run``; the job
    starts ``origin`` after the set-up."""
    cluster, node, backend = build(backend_name, caller, alloc_policy)
    env = cluster.env
    if prepare is not None:
        prepare(cluster, backend.tiers[0])
    log = []

    def note(label):
        log.append((env.now, label))

    pages = make_pages(pages, owner="g")

    def job():
        yield env.timeout(origin)
        for page in pages:
            try:
                yield from backend.swap_out(page)
            except NetworkError as error:
                note("out-failed:{}:{!r}".format(page.page_id, error))
            note("out:{}:{}".format(page.page_id, backend.location(page.page_id)))
        for page in pages[:reads]:
            yield from backend.swap_in(page)
            note("in:{}".format(page.page_id))

    for body in chaos:
        env.process(body(cluster, node, note))
    done = env.process(job())
    if chunk is None:
        env.run(until=done)
        env.run(until=env.now + 2e-3)
    else:
        while done.is_alive:
            env.run(until=env.now + chunk)
        end = env.now + 2e-3
        while env.now < end:
            env.run(until=min(end, env.now + chunk))
    return log, end_state(cluster, backend, pages)


def both(*args, **kwargs):
    """The scenario's observation with gathers in place and spawned,
    and the counts of the first."""
    with counted_gathers() as tally:
        new = observe(*args, **kwargs)
    with reference_gather(), reference_send():
        old = observe(*args, **kwargs)
    return new, old, tally


def mover(src, dst, rounds=12, gap=2e-6):
    """Chaos: ``rounds`` 64 KiB transfers ``src -> dst``, ``gap`` apart."""

    def body(cluster, node, note):
        fabric = cluster.fabric
        for round_ in range(rounds):
            try:
                yield from fabric.transfer(src, dst, 64 * KiB)
            except NetworkError as error:
                note("move-failed:{}->{}:{!r}".format(src, dst, error))
            else:
                note("moved:{}->{}:{}".format(src, dst, round_))
            yield cluster.env.timeout(gap)

    return body


def crash(victim, delay):
    """Chaos: crash ``victim`` ``delay`` after the job starts."""

    def body(cluster, node, note):
        yield cluster.env.timeout(delay)
        cluster.crash_node(victim)
        note("crash:" + victim)

    return body


# -- healthy gathers ---------------------------------------------------------


@pytest.mark.parametrize("caller", [0, 3])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_healthy_gathers_match_the_reference(backend_name, caller):
    new, old, tally = both(backend_name, caller)
    assert new == old
    assert tally["inline"] > 0
    # Node 3's lanes sort after node 0-2's and before node 4-7's, so
    # its children take the lane in an order other than target order.
    assert (tally["reordered"] > 0) == (caller == 3)


def close_connections(cluster, tier):
    """Close the caller's queue pairs: its next gathers pay handshakes."""
    for qp in tier.node.device._qps.values():
        qp.close()


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_first_contact_handshakes_match_the_reference(backend_name):
    new, old, tally = both(backend_name, prepare=close_connections)
    assert new == old
    assert tally["inline"] > 0 and tally["spawned"] > 0


def test_a_gather_spawns_exactly_when_a_target_needs_a_handshake():
    cluster, node, backend = build("ec-remote", 0)
    close_connections(cluster, backend.tiers[0])
    seen = []
    saved = Tier._chain

    def chain(self, targets, nbytes, write):
        fresh = any(node.device.ready_qp(t) is None for t in targets)
        plan = saved(self, targets, nbytes, write)
        seen.append((fresh, plan is None))
        return plan

    Tier._chain = chain
    try:
        for page in make_pages(6, owner="g"):
            cluster.run_process(backend.swap_out(page))
    finally:
        Tier._chain = saved
    assert all(fresh == spawned for fresh, spawned in seen)
    assert (True, True) in seen and (False, False) in seen


# -- contention and faults ---------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "src,dst",
    [
        ("node0", "node7"),  # the caller's TX lane: writes queue behind
        ("node6", "node0"),  # the caller's RX lane: reads queue behind
        ("node6", "node2"),  # a target's RX lane: one write waits
        ("node2", "node6"),  # a holder's TX lane: one read waits
    ],
)
def test_busy_lanes_match_the_reference(backend_name, src, dst):
    new, old, tally = both(backend_name, chaos=[mover(src, dst, rounds=4)])
    assert new == old
    assert tally["inline"] > 0 and tally["spawned"] > 0


#: Crash times after the job starts: most land inside some gather.
CRASH_DELAYS = [index * 7.3e-6 for index in range(1, 13)]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("delay", CRASH_DELAYS)
def test_a_crash_inside_a_gather_matches_the_reference(backend_name, delay):
    new, old, _tally = both(
        backend_name, chaos=[crash("node2", delay), mover("node5", "node1")]
    )
    assert new == old
    assert any(label == "crash:node2" for _now, label in new[0])


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_crashes_do_cut_chains(backend_name):
    """Not vacuous: some gathers are refused only because the crash is
    due before their chain would end."""
    cut = 0
    for delay in CRASH_DELAYS:
        with counted_gathers() as tally:
            observe(backend_name, chaos=[crash("node2", delay)])
        cut += tally["cut"]
    assert cut > 0


def degrade(cluster, _tier):
    """Unequal wire times: node 0, 2, 3, 5 and 6 run degraded links."""
    for node_id, factor in (("node0", 1.37), ("node2", 2.71), ("node3", 1.13),
                            ("node5", 1.91), ("node6", 3.07)):
        cluster.fabric.set_degraded(node_id, factor)


@pytest.mark.parametrize("caller", [0, 3])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_degraded_links_match_the_reference(backend_name, caller):
    new, old, tally = both(backend_name, caller, prepare=degrade)
    assert new == old
    assert tally["inline"] > 0


@pytest.mark.parametrize(
    "backend_name,caller", [("ec-remote", 3), ("replicated-remote", 1)]
)
def test_a_chain_across_a_power_of_two_sums_in_lane_order(backend_name, caller):
    """The end time is the float sum of the wire times in the order the
    children take the lane, which for these callers is not the target
    order.  The order only shows where the partial sums cross a power
    of two (past it they round on a coarser grid), so the job starts at
    a sweep of offsets before 2**-6 s and each first put's chain
    straddles it somewhere."""
    set_up = build(backend_name, caller)[0].env.now
    reordered = 0
    for step in range(40):
        origin = 2 ** -6 - 0.25e-6 * step - set_up
        new, old, tally = both(
            backend_name, caller, prepare=degrade, origin=origin, pages=2,
            reads=2,
        )
        assert new == old, step
        reordered += tally["reordered"]
    assert reordered > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_revoked_region_spawns_and_fails_the_same_way(backend_name):
    def revoke(cluster, _tier):
        region = cluster.receive_region_of("node2")
        cluster.device_of("node2").deregister_memory(region)

    new, old, tally = both(backend_name, prepare=revoke)
    assert new == old
    assert new[1]["rows"][0]["failovers"] > 0
    assert tally["spawned"] > 0


class RefusingArea(RemoteArea):
    """An area that refuses the keys in :attr:`REFUSE` on the odd nodes,
    as a fragmented arena would: every stripe or replica set mixes odd
    and even nodes, so a refused write rolls back the copies that did
    land and spills."""

    __slots__ = ()
    REFUSE = frozenset()

    def reserve(self, key, nbytes):
        if key in self.REFUSE and int(self.node_id[-1]) % 2:
            return False
        return super().reserve(key, nbytes)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_an_arena_refusal_rolls_back_and_spills(backend_name):
    pages = make_pages(10, owner="g")
    refused = {pages[3].page_id, pages[7].page_id}

    class Refusing(RefusingArea):
        __slots__ = ()
        REFUSE = refused

    def refuse(_cluster, tier):
        for area in tier.areas.values():
            area.__class__ = Refusing

    new, old, tally = both(backend_name, prepare=refuse, alloc_policy="arena")
    assert new == old
    assert tally["inline"] > 0
    rows = new[1]["rows"]
    assert rows[0]["failovers"] == len(refused)
    for page, (holders, location) in zip(pages, new[1]["maps"]):
        if page.page_id in refused:
            assert location[0] != rows[0]["tier"] and not holders
    assert new[1]["areas"] != [(peer, 0) for peer, _used in new[1]["areas"]]


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("chunk", [1.3e-5, 2.3e-5])
def test_run_until_cuts_the_chain(backend_name, chunk):
    new, old, tally = both(
        backend_name, chaos=[crash("node2", 40e-6)], chunk=chunk
    )
    assert new == old
    assert tally["cut"] > 0 and tally["inline"] > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_traced_run_spawns_every_gather(backend_name):
    def traced():
        with runtime.session():
            observed = []

            def prepare(cluster, _tier):
                observed.append(cluster.env.tracer)

            log, state = observe(backend_name, prepare=prepare)
            return log, state, observed[0].events_json()

    with counted_gathers() as tally:
        new = traced()
    with reference_gather(), reference_send():
        old = traced()
    assert new == old
    assert tally["inline"] == 0 and tally["spawned"] > 0
