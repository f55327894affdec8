"""The cluster interconnect.

A :class:`Fabric` connects named nodes through a non-blocking switch
(full bisection bandwidth, as in the paper's 32-machine InfiniBand
testbed): the contended resources are each node's NIC transmit and
receive sides, not the core.  Transfers charge

    base latency + payload / min(tx bandwidth, rx bandwidth)

while holding the sender's TX lane and the receiver's RX lane, so
concurrent flows to or from one node queue behind each other.

Failure state lives here: nodes and directed links can be marked down,
and every transfer checks that state both when it starts and when it
would complete (a mid-flight crash loses the transfer).

A transfer nothing else could observe, with free lanes, an unlimited
core, the path up and its end strictly next, is done in place as plain
arithmetic (:meth:`Fabric.send_now`): the clock moves by the wire time,
no lane is taken and nothing can fail mid-flight.
"""

from repro.net.errors import LinkDown, RemoteNodeDown
from repro.hw.latency import NetworkSpec
from repro.sim import Resource


class Nic:
    """A node's network interface: independent TX and RX lanes."""

    def __init__(self, env, node_id, spec):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.tx = Resource(env, capacity=1, name="nic-tx:{}".format(node_id))
        self.rx = Resource(env, capacity=1, name="nic-rx:{}".format(node_id))
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0


class Fabric:
    """A switched cluster network with failure injection hooks."""

    def __init__(self, env, spec=None, core_concurrency=0):
        """``core_concurrency`` > 0 caps concurrent transfers through
        the switch core — an oversubscribed fabric.  0 models full
        bisection bandwidth (the paper testbed's non-blocking fabric).
        """
        self.env = env
        self.spec = spec or NetworkSpec()
        self._nics = {}
        self._down_nodes = set()
        self._down_links = set()  # directed (src, dst) pairs
        self._degraded = {}  # node_id -> latency/bandwidth multiplier
        self._lane_order = {}  # (src, dsts) -> lanes in acquisition order
        self._core = (
            Resource(env, capacity=core_concurrency, name="fabric-core")
            if core_concurrency > 0 else None
        )
        self.total_bytes = 0
        self.total_messages = 0

    # -- topology ------------------------------------------------------

    def add_node(self, node_id):
        """Attach a node; returns its :class:`Nic`."""
        if node_id in self._nics:
            raise ValueError("node {!r} already attached".format(node_id))
        nic = Nic(self.env, node_id, self.spec)
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id):
        """The :class:`Nic` of an attached node."""
        return self._nics[node_id]

    @property
    def node_ids(self):
        return list(self._nics)

    # -- failure state ---------------------------------------------------

    def set_node_down(self, node_id, down=True):
        """Mark a node crashed (or recovered with ``down=False``)."""
        if node_id not in self._nics:
            raise KeyError(node_id)
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def set_link_down(self, src, dst, down=True, symmetric=True):
        """Partition the directed path ``src -> dst`` (both ways by default)."""
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for pair in pairs:
            if down:
                self._down_links.add(pair)
            else:
                self._down_links.discard(pair)

    def set_degraded(self, node_id, factor=1.0):
        """Degrade every path touching ``node_id`` by ``factor``.

        Models a flaky NIC/cable renegotiating at a lower rate (the
        paper's RDMA-link degradation scenario): transfers to or from
        the node take ``factor`` times as long.  ``factor <= 1``
        restores full speed.
        """
        if node_id not in self._nics:
            raise KeyError(node_id)
        if factor <= 1.0:
            self._degraded.pop(node_id, None)
        else:
            self._degraded[node_id] = float(factor)

    def degrade_factor(self, src, dst):
        """The latency multiplier currently applied to ``src -> dst``."""
        if not self._degraded:
            return 1.0
        return max(
            1.0,
            self._degraded.get(src, 1.0),
            self._degraded.get(dst, 1.0),
        )

    def is_node_down(self, node_id):
        return node_id in self._down_nodes

    def is_reachable(self, src, dst):
        """True if a transfer ``src -> dst`` could start right now."""
        return (
            src not in self._down_nodes
            and dst not in self._down_nodes
            and (src, dst) not in self._down_links
        )

    def _check_path(self, src, dst):
        if dst in self._down_nodes:
            raise RemoteNodeDown(dst)
        if src in self._down_nodes:
            raise RemoteNodeDown(src)
        if (src, dst) in self._down_links:
            raise LinkDown(src, dst)

    # -- data movement -----------------------------------------------------

    def transfer_time(self, nbytes, base_latency=None):
        """Uncontended wire time for ``nbytes``."""
        if base_latency is None:
            base_latency = self.spec.rdma_latency
        return base_latency + nbytes / self.spec.bandwidth

    def control_send(self, src, dst, nbytes):
        """Generator: one control-plane message from ``src`` to ``dst``.

        Control traffic (heartbeats, telemetry reports, balance plans)
        travels two-sided SEND/RECV, so it pays the send/recv surcharge
        on top of the base RDMA latency.  Same failure semantics as
        :meth:`transfer`.
        """
        yield from self.transfer(
            src,
            dst,
            nbytes,
            base_latency=self.spec.rdma_latency + self.spec.send_recv_extra,
            op="control",
        )

    def transfer(self, src, dst, nbytes, base_latency=None, op="data"):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Holds the sender's TX lane and receiver's RX lane for the wire
        time; raises a :class:`~repro.net.errors.NetworkError` subclass
        if the path is (or goes) down.  ``op`` labels the traffic class
        ("data" or "control") for tracing only.

        Untraced, this hands back the :meth:`_send` generator itself, so
        a transfer costs one generator frame per resumption rather than
        two.  Nothing moves until that generator first runs (a watchdog
        may start it later, in a child process).
        """
        if not self.env.tracer.enabled:
            return self._send(src, (dst,), nbytes, base_latency)
        return self._traced_transfer(src, dst, nbytes, base_latency, op)

    def _traced_transfer(self, src, dst, nbytes, base_latency, op):
        tracer = self.env.tracer
        began = self.env.now
        span = tracer.begin("net.send", src=src, dst=dst, nbytes=nbytes, op=op)
        try:
            yield from self._send(src, (dst,), nbytes, base_latency)
        except Exception as error:
            tracer.end(span, ok=False, error=type(error).__name__)
            raise
        tracer.end(span, ok=True)
        tracer.latency("net", "send." + op, self.env.now - began)

    def fanout(self, src, dsts, nbytes_each, base_latency=None, op="data"):
        """Generator: one fan-out round from ``src`` to every ``dsts``.

        The SWARM-style single-round write primitive: the sender posts
        one doorbell that replicates ``nbytes_each`` to every
        destination in parallel, holding its TX lane for *one* wire
        time (the slowest path) instead of once per copy.  All paths
        are checked at start and at completion — a destination that is
        (or goes) down fails the whole round; nothing is delivered
        partially.  Emits a single ``net.send`` span carrying the
        ``dsts`` list and a ``fanout`` count.
        """
        dsts = tuple(dsts)
        if not dsts:
            return
        tracer = self.env.tracer
        if not tracer.enabled:
            yield from self._send(src, dsts, nbytes_each, base_latency)
            return
        began = self.env.now
        span = tracer.begin(
            "net.send",
            src=src,
            dsts=list(dsts),
            nbytes=nbytes_each * len(dsts),
            op=op,
            fanout=len(dsts),
        )
        try:
            yield from self._send(src, dsts, nbytes_each, base_latency)
        except Exception as error:
            tracer.end(span, ok=False, error=type(error).__name__)
            raise
        tracer.end(span, ok=True)
        tracer.latency("net", "send." + op, self.env.now - began)

    def chain(self, node_id, peers, nbytes, inbound, start):
        """Plan transfers of ``nbytes`` from ``node_id`` to each of
        ``peers`` (from each to it when ``inbound``), one per process,
        all asking for ``node_id``'s lane at ``start``.

        They share that one lane, so they run one after another: first
        those that take it before their peer's lane, then the rest
        (which ask for it a dispatch later, once they hold their
        peer's), each group in ``peers`` order; each starts when the one
        before it ends.  Returns ``(end, order)``, when the last ends
        and the peers in the order they run, or ``None`` unless the
        core is unlimited, the peers are distinct (and not none), every
        path is up and every lane free with no waiter.  The plan holds
        only if nothing else acts before ``end``.
        """
        if (
            self._core is not None or not peers or node_id in peers
            or len(set(peers)) < len(peers)
        ):
            return None
        nics = self._nics
        lane = nics[node_id].rx if inbound else nics[node_id].tx
        if lane.users or lane.queue_length:
            return None
        wire = self.transfer_time(nbytes)
        end = start
        first, then, later = [], [], []
        for peer in peers:
            src, dst = (peer, node_id) if inbound else (node_id, peer)
            far = nics[peer].tx if inbound else nics[peer].rx
            if far.users or far.queue_length or not self.is_reachable(src, dst):
                return None
            # The product each transfer computes (``wire * 1.0 == wire``).
            time = wire * self.degrade_factor(src, dst) if self._degraded else wire
            if self._lanes(src, (dst,))[0] is lane:
                first.append(peer)
                end += time
            else:
                then.append(peer)
                later.append(time)
        for time in later:
            end += time
        return end, first + then

    def _lanes(self, src, dsts):
        """The TX lane of ``src`` and the RX lane of every ``dsts`` (a
        tuple), in acquisition order.

        Lanes are acquired in a canonical global order, the string order
        of the keys ``"<src>:tx"`` and ``"<dst>:rx"``, so that concurrent
        transfers can never hold-and-wait in a cycle (deadlock).  A TX
        and an RX key never tie, and the order never changes, so it is
        worked out once per ``(src, dsts)``.
        """
        key = (src, dsts)
        lanes = self._lane_order.get(key)
        if lanes is None:
            keyed = [("{}:tx".format(src), self._nics[src].tx)] + [
                ("{}:rx".format(dst), self._nics[dst].rx) for dst in dsts
            ]
            keyed.sort(key=lambda pair: pair[0])
            lanes = tuple(lane for _key, lane in keyed)
            self._lane_order[key] = lanes
        return lanes

    def _wire(self, src, dsts, nbytes_each, base_latency):
        """The wire time of a round to ``dsts``: its slowest path's."""
        wire = self.transfer_time(nbytes_each, base_latency)
        if self._degraded:  # else ``wire * 1.0 == wire``
            wire *= max(self.degrade_factor(src, dst) for dst in dsts)
        return wire

    def _count(self, src, dsts, nbytes_each):
        nics = self._nics
        nbytes = nbytes_each * len(dsts)
        nic = nics[src]
        nic.bytes_sent += nbytes
        nic.messages_sent += 1
        for dst in dsts:
            nics[dst].bytes_received += nbytes_each
        self.total_bytes += nbytes
        self.total_messages += 1

    def send_now(self, src, dsts, nbytes_each, base_latency=None):
        """Move ``nbytes_each`` from ``src`` to every ``dsts`` (a tuple;
        one destination is a transfer, more a fan-out round) in place,
        if nothing could observe it; False changes nothing.

        It goes ahead only when the core is unlimited, the TX lane of
        ``src`` and the RX lane of every ``dsts`` have no holder and no
        waiter, every path is up and ``env.advance(wire)`` holds.  Then
        every claim's ``advance(0)`` would hold too, and nothing (a
        crash, say) can act before a strictly-next time, so the lanes
        need not be taken and the path need not be checked again at
        the end: a free device's ``avail = max(avail, now) + wire``.
        """
        if self._core is not None:
            return False
        nics = self._nics
        lane = nics[src].tx
        if lane.users or lane.queue_length:
            return False
        for dst in dsts:
            lane = nics[dst].rx
            if lane.users or lane.queue_length or not self.is_reachable(src, dst):
                return False
        if not self.env.advance(self._wire(src, dsts, nbytes_each, base_latency)):
            return False
        self._count(src, dsts, nbytes_each)
        return True

    def _send(self, src, dsts, nbytes_each, base_latency=None):
        """Generator: :meth:`send_now`, or, when it refuses, the same
        transfer or round holding every lane it needs for the wire time.
        """
        if self.send_now(src, dsts, nbytes_each, base_latency):
            return
        for dst in dsts:
            self._check_path(src, dst)
        lanes = self._lanes(src, dsts)
        if self._core is not None:
            # The core is acquired only after every lane, and its
            # holders never wait on lanes, so no cycle can form.
            lanes += (self._core,)
        held = []
        try:
            for lane in lanes:
                # A free lane is claimed with no event (``Resource.claim``).
                request = lane.claim() or lane.request()
                # Held from the request on, so an interrupted wait
                # withdraws it (see ``Resource.release``).
                held.append((lane, request))
                if request.callbacks is not None:  # not claimed
                    yield request
            wire = self._wire(src, dsts, nbytes_each, base_latency)
            if not self.env.advance(wire):
                yield self.env.timeout(wire)
            # A node or link that died mid-flight loses the whole round.
            for dst in dsts:
                self._check_path(src, dst)
            self._count(src, dsts, nbytes_each)
        finally:
            for lane, request in held:
                lane.release(request)
