"""``Tier._gather``: a fan-out as bookings on the caller's NIC lane.

A gather's transfers all need the caller's one NIC lane (RX for
fragment reads, TX for stripe and replica writes).  It connects to any
target with no ready queue pair first, in target order, pays one
per-message overhead, books one transfer per target in target order
(``Fabric.reserve``) and waits through their ends in that order, each
target's path checked at its own end.  It starts no process.  The
scenarios below swap pages out and back in beside crashes, busy lanes,
revoked regions, refusing arenas and degraded links, and read what each
target's transfer did from its traced ``net.send`` span.

A gather must also be invisible against the fan-out it stands for: the
reference (:func:`reference_gather`) connects the same way and then
runs each target's one-sided op in a child process ``<track>:<target>``
that books its own transfer, and refuses every in-place wait
(:func:`~tests.sim.conftest.reference_advance`).  Each scenario's
``old`` and ``new`` runs must log the same ``(now, label)`` sequence
and end in the same state (tier rows, fabric, NIC and queue-pair
counters, area usage, stripe and replica maps).
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.cluster import DisaggregatedCluster
from repro.experiments.runner import default_cluster_config
from repro.hw.latency import KiB
from repro.mem.page import make_pages
from repro.net.errors import NetworkError
from repro.net.fabric import Fabric
from repro.sim.engine import Environment
from repro.swap.factory import make_swap_backend
from repro.tiers.base import Tier
from repro.tiers.remote import RemoteArea
from repro.trace import runtime
from tests.sim.conftest import reference_advance

BACKENDS = ("ec-remote", "replicated-remote")


def spawned_gather(self, targets, nbytes, write, track, key=None):
    """``Tier._gather`` as a fan-out of child processes: connect to the
    targets with no ready queue pair, in target order, then run each
    target's :meth:`Tier._one_sided` op in a child process
    ``<track>:<target>``, which pays its own per-message overhead and
    books its own transfer."""
    env = self.env
    device = self.node.device
    directory = self.directory
    reached = []
    for index, target in enumerate(targets):
        if directory.receive_region_of(target) is None:
            continue
        if device.ready_qp(target) is None:
            try:
                yield from device.connect(directory.device_of(target))
            except NetworkError:
                continue
        reached.append((index, target))
    landed = [False] * len(targets)

    def one(index, target):
        try:
            yield from self._one_sided(target, nbytes, write)
        except NetworkError:
            return
        area = self.areas.get(target) if write else None
        landed[index] = area is None or area.reserve(key, nbytes)

    yield env.all_of([
        env.process(one(index, target), name="{}:{}".format(track, target))
        for index, target in reached
    ])
    return [target for target, ok in zip(targets, landed) if ok]


@contextmanager
def reference_gather():
    """Every gather as :func:`spawned_gather`."""
    saved = Tier._gather
    Tier._gather = spawned_gather
    try:
        yield
    finally:
        Tier._gather = saved


@contextmanager
def counted_gathers():
    """Count, in the ``Counter`` it yields, the gathers run
    (``inline``), the transfers booked in them behind a busy lane
    (``queued``) and the waits in them that could not be in place
    because something else was due first or the run stops first
    (``cut``); its ``spans`` list holds each gather's ``(start, end)``."""
    saved_gather = Tier._gather
    saved_advance, saved_reserve = Environment.advance, Fabric.reserve
    tally = Counter()
    tally.spans = []
    inside = set()

    def gather(self, *args, **kwargs):
        tally["inline"] += 1
        env = self.env
        process, start = env.active_process, env.now
        inside.add(process)
        try:
            return (yield from saved_gather(self, *args, **kwargs))
        finally:
            inside.discard(process)
            tally.spans.append((start, env.now))

    def advance(self, delay):
        moved = saved_advance(self, delay)
        if not moved and self.active_process in inside:
            tally["cut"] += 1
        return moved

    def reserve(self, src, dsts, nbytes_each, base_latency=None):
        begin, delay = saved_reserve(self, src, dsts, nbytes_each, base_latency)
        if begin > self.env.now and self.env.active_process in inside:
            tally["queued"] += 1
        return begin, delay

    Tier._gather = gather
    Environment.advance = advance
    Fabric.reserve = reserve
    try:
        yield tally
    finally:
        Tier._gather = saved_gather
        Environment.advance = saved_advance
        Fabric.reserve = saved_reserve


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
    """The scenario's observation with gathers in place and under the
    reference, and the counts of the first."""
    with counted_gathers() as tally:
        new = observe(*args, **kwargs)
    with reference_gather(), reference_advance():
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

def traced(*args, **kwargs):
    """:func:`observe` in a trace session: its log, its end state and
    every gathered transfer's span, ``{gather track: [(target, begin,
    end, ok)]}`` in booking order, and the trace's events."""
    prepare = kwargs.pop("prepare", None)
    tracers = []

    def hook(cluster, tier):
        tracers.append(cluster.env.tracer)
        if prepare is not None:
            prepare(cluster, tier)

    with runtime.session():
        log, state = observe(*args, prepare=hook, **kwargs)
    events = tracers[0].events_json()
    gathers = {}
    for event in events:
        gather, _sep, target = event["track"].rpartition(":")
        if event["name"] == "net.send" and gather.startswith(
            ("stripe:", "replicate:", "ec-read:")
        ):
            gathers.setdefault(gather, []).append((
                target, event["ts"], event["ts"] + event["dur"],
                event["args"]["ok"],
            ))
    return log, state, gathers, events


def close_connections(cluster, tier):
    """Close the caller's queue pairs: its next gathers pay handshakes."""
    for qp in tier.node.device._qps.values():
        qp.close()


def degrade(cluster, _tier):
    """Unequal wire times: node 0, 2, 3, 5 and 6 run degraded links."""
    for node_id, factor in DEGRADED.items():
        cluster.fabric.set_degraded(node_id, factor)


DEGRADED = {"node0": 1.37, "node2": 2.71, "node3": 1.13, "node5": 1.91,
            "node6": 3.07}


# -- healthy gathers ---------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_gather_starts_no_process(backend_name, monkeypatch):
    cluster, _node, backend = build(backend_name, 0)
    started = []
    spawn = Environment.process

    def process(self, generator, name=None):
        started.append(name)
        return spawn(self, generator, name)

    monkeypatch.setattr(Environment, "process", process)
    for page in make_pages(6, owner="g"):
        cluster.run_process(backend.swap_out(page))
        cluster.run_process(backend.swap_in(page))
    assert backend.tier_breakdown()[0]["puts"] == 6
    assert started == [None] * 12


@pytest.mark.parametrize("caller", [0, 3])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_gathers_targets_run_back_to_back_in_target_order(
    backend_name, caller
):
    """A traced run takes the untraced path (same log, same end state),
    and each target's transfer begins where the one before it ends."""
    log, state, gathers, _events = traced(backend_name, caller)
    assert (log, state) == observe(backend_name, caller)
    assert gathers
    for spans in gathers.values():
        assert all(ok for *_span, ok in spans)
        for before, after in zip(spans, spans[1:]):
            assert after[1] == before[2]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_first_contact_connects_in_target_order_before_any_transfer(
    backend_name,
):
    _log, _state, gathers, events = traced(
        backend_name, prepare=close_connections, pages=1, reads=0
    )
    ((_track, spans),) = gathers.items()
    targets = [target for target, *_span in spans]
    handshakes = [
        event["args"]["dst"] for event in events
        if event["name"] == "net.send" and event["track"] == "job"
    ]
    assert handshakes == [target for target in targets for _message in range(3)]
    last = max(
        event["ts"] + event["dur"] for event in events
        if event["name"] == "net.send" and event["track"] == "job"
    )
    assert last <= spans[0][1]


# -- contention and faults ---------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "src,dst",
    [
        ("node0", "node7"),  # the caller's TX lane: writes queue behind
        ("node6", "node2"),  # a target's RX lane: its write queues behind
    ],
)
def test_a_busy_lane_books_the_gather_behind_it(backend_name, src, dst):
    quiet = traced(backend_name)[2]
    busy = traced(backend_name, chaos=[mover(src, dst, rounds=4)])[2]
    assert quiet.keys() == busy.keys()
    late = 0
    for track, spans in busy.items():
        assert all(ok for *_span, ok in spans)
        late += spans[-1][2] > quiet[track][-1][2]
    assert late


#: Crash times after the job starts: most land inside some gather.
CRASH_DELAYS = [index * 7.3e-6 for index in range(1, 13)]


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_crash_inside_a_gather_fails_that_target_alone(backend_name):
    lost = 0
    for delay in CRASH_DELAYS:
        log, _state, gathers, _events = traced(
            backend_name, chaos=[crash("node2", delay), mover("node5", "node1")]
        )
        crashed = next(now for now, label in log if label == "crash:node2")
        for spans in gathers.values():
            for target, begin, end, ok in spans:
                if target == "node2" and end > crashed:
                    assert not ok
                    lost += begin < crashed
                else:
                    assert ok, (delay, target)
        assert sum(label.startswith("in:") for _now, label in log) == 6
    # Not vacuous: some crash landed while a booked transfer was on it.
    assert lost


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_degraded_link_slows_only_its_own_transfer(backend_name):
    plain = traced(backend_name)[2]
    _log, state, slow, _events = traced(backend_name, prepare=degrade)
    assert slow.keys() == plain.keys()
    for track, spans in slow.items():
        for (target, begin, end, ok), base in zip(spans, plain[track]):
            factor = max(DEGRADED.get(target, 1.0), DEGRADED["node0"])
            assert ok and target == base[0]
            assert end - begin == pytest.approx((base[2] - base[1]) * factor)
    assert state["rows"][0]["puts"] == 10


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_revoked_region_fails_that_target_and_books_nothing(backend_name):
    def revoke(cluster, _tier):
        region = cluster.receive_region_of("node2")
        cluster.device_of("node2").deregister_memory(region)

    _log, state, gathers, _events = traced(backend_name, prepare=revoke)
    assert state["rows"][0]["failovers"] > 0
    for spans in gathers.values():
        assert "node2" not in [target for target, *_span in spans]


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
def test_run_until_cuts_a_gather_without_changing_it(backend_name, chunk):
    chaos = [crash("node2", 40e-6)]
    log, state = observe(backend_name, chaos=chaos, chunk=chunk)
    whole_log, whole_state = observe(backend_name, chaos=chaos)
    assert log == whole_log
    # Only where the last ``run(until=...)`` leaves the clock differs.
    state.pop("now")
    whole_state.pop("now")
    assert state == whole_state


# -- against the spawned reference -------------------------------------------


@pytest.mark.parametrize("caller", [0, 3])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_healthy_gathers_match_the_reference(backend_name, caller):
    new, old, tally = both(backend_name, caller)
    assert new == old
    assert tally["inline"] > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_first_contact_handshakes_match_the_reference(backend_name):
    new, old, tally = both(backend_name, prepare=close_connections)
    assert new == old
    assert tally["inline"] > 0


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
    assert tally["inline"] > 0 and tally["queued"] > 0


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
    """Not vacuous: a crash due inside a gather stops it waiting in
    place."""
    quiet = cut = 0
    for delay in CRASH_DELAYS:
        with counted_gathers() as tally:
            observe(backend_name)
        quiet += tally["cut"]
        with counted_gathers() as tally:
            observe(backend_name, chaos=[crash("node2", delay)])
        cut += tally["cut"]
    assert cut > quiet


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
    """A gather's end time is the float sum of its wire times in the
    order its transfers take the caller's lane, target order.  The
    order only shows where the partial sums cross a power of two (past
    it they round on a coarser grid), so the job starts at a sweep of
    offsets before 2**-6 s and some gather straddles it."""
    set_up = build(backend_name, caller)[0].env.now
    straddled = 0
    for step in range(40):
        origin = 2 ** -6 - 0.25e-6 * step - set_up
        new, old, tally = both(
            backend_name, caller, prepare=degrade, origin=origin, pages=2,
            reads=2,
        )
        assert new == old, step
        straddled += any(
            start < 2 ** -6 < end for start, end in tally.spans
        )
    assert straddled > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_revoked_region_spawns_and_fails_the_same_way(backend_name):
    """The gather and the spawned reference fail the revoked target
    the same way."""
    def revoke(cluster, _tier):
        region = cluster.receive_region_of("node2")
        cluster.device_of("node2").deregister_memory(region)

    new, old, tally = both(backend_name, prepare=revoke)
    assert new == old
    assert new[1]["rows"][0]["failovers"] > 0
    assert tally["inline"] > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("chunk", [1.3e-5, 2.3e-5])
def test_run_until_cuts_the_chain(backend_name, chunk):
    new, old, tally = both(
        backend_name, chaos=[crash("node2", 40e-6)], chunk=chunk
    )
    assert new == old
    assert tally["cut"] > 0 and tally["inline"] > 0
