"""``Tier._one_sided``'s in-place waits must be invisible.

A one-sided op takes the ready queue pair (``connect`` only when there
is none), pays its per-message overhead and sends its transfer, each
wait in place (``Environment.advance``) where nothing else is due
first.  The reference connects on every op, then runs the verb, with
every in-place wait refused (:func:`reference_one_sided`).  Both sides
run every gather as its fan-out of child processes
(:func:`~tests.tiers.test_gather.reference_gather`), so every data
transfer is a one-sided op; the gather scenarios of ``test_gather``
must log the same ``(now, label)`` sequence and end in the same state
under both.
"""

from contextlib import contextmanager

import pytest

from repro.net.errors import NetworkError
from repro.net.rdma import QueuePair, RemoteAccessError
from repro.tiers.base import Tier
from tests.net.test_send_now import counted_sends
from tests.sim.conftest import reference_advance
from tests.tiers.test_gather import (
    build,
    close_connections,
    crash,
    degrade,
    mover,
    observe,
    reference_gather,
)

BACKENDS = ("ec-remote", "replicated-remote", "replicated-remote-1rtt")


def verb_one_sided(self, target, nbytes, write):
    region = self.directory.receive_region_of(target)
    if region is None:
        raise RemoteAccessError("no region on {!r}".format(target))
    qp = yield from self.node.device.connect(self.directory.device_of(target))
    if write:
        yield from qp.write(region, nbytes)
    else:
        yield from qp.read(region, nbytes)


@contextmanager
def reference_one_sided():
    """Every one-sided op through ``connect`` and the queue pair's verb,
    every wait on an event."""
    saved = Tier._one_sided
    Tier._one_sided = verb_one_sided
    try:
        with reference_advance():
            yield
    finally:
        Tier._one_sided = saved


def both(*args, **kwargs):
    """The scenario's observation with in-place waits and under the
    reference, and how many transfers the first landed in place."""
    with reference_gather(), counted_sends() as tally:
        new = observe(*args, **kwargs)
    with reference_gather(), reference_one_sided():
        old = observe(*args, **kwargs)
    return new, old, tally["done"]


@pytest.mark.parametrize("caller", [0, 3])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_healthy_ops_match_the_reference(backend_name, caller):
    new, old, in_place = both(backend_name, caller)
    assert new == old
    assert in_place > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "prepare", [close_connections, degrade], ids=["handshakes", "degraded"]
)
def test_prepared_clusters_match_the_reference(backend_name, prepare):
    new, old, _in_place = both(backend_name, prepare=prepare)
    assert new == old


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("src,dst", [("node0", "node7"), ("node6", "node0")])
def test_busy_lanes_match_the_reference(backend_name, src, dst):
    new, old, in_place = both(backend_name, chaos=[mover(src, dst, rounds=4)])
    assert new == old
    assert in_place > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("delay", [index * 7.3e-6 for index in (1, 4, 7, 10)])
def test_a_crash_matches_the_reference(backend_name, delay):
    new, old, _in_place = both(
        backend_name, chaos=[crash("node2", delay), mover("node5", "node1")]
    )
    assert new == old


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_run_until_matches_the_reference(backend_name):
    new, old, in_place = both(
        backend_name, chaos=[crash("node2", 40e-6)], chunk=1.3e-5
    )
    assert new == old
    assert in_place > 0


def revoke(cluster, _tier):
    region = cluster.receive_region_of("node2")
    cluster.device_of("node2").deregister_memory(region)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_a_revoked_region_fails_the_same_way(backend_name):
    new, old, _in_place = both(backend_name, prepare=revoke)
    assert new == old
    assert new[1]["rows"][0]["failovers"] > 0


@pytest.mark.parametrize("spoil", ["revoked", "too small"])
def test_a_bad_region_raises_before_anything_moves(spoil):
    """The verb's region check runs first on the ready queue pair:
    nothing moves and the queue pair stays ready."""
    cluster, node, backend = build("ec-remote", 0)
    tier = backend.tiers[0]
    qp = node.device.ready_qp("node2")
    assert qp is not None
    region = cluster.receive_region_of("node2")
    nbytes = 4096
    if spoil == "revoked":
        cluster.device_of("node2").deregister_memory(region)
    else:
        nbytes = region.size + 1
    fabric = cluster.fabric
    nic = fabric.nic(node.node_id)
    before = (cluster.env.now, fabric.total_messages, qp.ops_completed,
              nic.tx_free_at)
    seen = []

    def op():
        try:
            yield from tier._one_sided("node2", nbytes, write=True)
        except NetworkError as error:
            seen.append(error)

    cluster.run_process(op())
    assert [type(error) for error in seen] == [RemoteAccessError]
    assert (cluster.env.now, fabric.total_messages, qp.ops_completed,
            nic.tx_free_at) == before
    assert qp.state == QueuePair.STATE_READY
