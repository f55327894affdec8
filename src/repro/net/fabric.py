"""The cluster interconnect.

A :class:`Fabric` connects named nodes through a non-blocking switch
(full bisection bandwidth, as in the paper's 32-machine InfiniBand
testbed): the contended resources are each node's NIC transmit and
receive sides, not the core.  Transfers charge

    base latency + payload / min(tx bandwidth, rx bandwidth)

on the sender's TX lane and the receiver's RX lane, so concurrent flows
to or from one node queue behind each other.

A lane is a busy-until clock, the way a device is priced by one float,
``avail = max(avail, now) + latency``: a transfer (or fan-out round) is
booked at submission, begins when every lane it uses is free, at
``max(now, free_at of each lane)``, ends one wire time later and moves
each of those lanes' ``free_at`` to that end.  Transfers therefore run
in submission order on each lane, and a transfer whose lanes are free
waits exactly its wire time.  An oversubscribed switch core is ``k``
more such clocks, of which a transfer takes the one that frees first.

Failure state lives here: nodes and directed links can be marked down,
and every transfer checks that state both when it is submitted and when
it would complete (a mid-flight crash loses the transfer).  A transfer
that fails or is cancelled keeps its booking: its bytes were already
on the wire.
"""

from repro.net.errors import LinkDown, RemoteNodeDown
from repro.hw.latency import NetworkSpec


class Nic:
    """A node's network interface: independent TX and RX lanes, each a
    busy-until clock (the simulated time it is booked until)."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.tx_free_at = self.rx_free_at = 0.0
        self.bytes_sent = self.bytes_received = self.messages_sent = 0


class Fabric:
    """A switched cluster network with failure injection hooks."""

    def __init__(self, env, spec=None, core_concurrency=0):
        """``core_concurrency`` > 0 caps concurrent transfers through
        the switch core — an oversubscribed fabric of that many
        busy-until clocks.  0 models full bisection bandwidth (the paper
        testbed's non-blocking fabric).
        """
        self.env = env
        self.spec = spec or NetworkSpec()
        self._nics = {}
        self._down_nodes = set()
        self._down_links = set()  # directed (src, dst) pairs
        self._degraded = {}  # node_id -> latency/bandwidth multiplier
        #: The switch core's busy-until clocks, or ``None`` if unlimited.
        self._core = [0.0] * core_concurrency if core_concurrency > 0 else None
        self.total_bytes = 0
        self.total_messages = 0

    # -- topology ------------------------------------------------------

    def add_node(self, node_id):
        """Attach a node; returns its :class:`Nic`."""
        if node_id in self._nics:
            raise ValueError("node {!r} already attached".format(node_id))
        nic = Nic(node_id)
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
        extra = self.spec.send_recv_extra
        yield from self.transfer(
            src, dst, nbytes, self.spec.rdma_latency + extra, op="control"
        )

    def transfer(self, src, dst, nbytes, base_latency=None, op="data"):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Books the sender's TX lane and receiver's RX lane for the wire
        time (:meth:`reserve`); raises a
        :class:`~repro.net.errors.NetworkError` subclass if the path is
        (or goes) down.  ``op`` labels the traffic class
        ("data" or "control") for tracing only.

        Untraced, this hands back the :meth:`_send` generator itself, so
        a transfer costs one generator frame per resumption rather than
        two.  Nothing moves until that generator first runs (a watchdog
        may start it later, in a child process).
        """
        if not self.env.tracer.enabled:
            return self._send(src, (dst,), nbytes, base_latency)
        return self._traced(src, (dst,), nbytes, base_latency, op, {
            "src": src, "dst": dst, "nbytes": nbytes, "op": op,
        })

    def fanout(self, src, dsts, nbytes_each, base_latency=None, op="data"):
        """Generator: one fan-out round from ``src`` to every ``dsts``.

        The SWARM-style single-round write primitive: the sender posts
        one doorbell that replicates ``nbytes_each`` to every
        destination in parallel, booking its TX lane for *one* wire
        time (the slowest path) instead of once per copy.  All paths
        are checked at submission and at completion — a destination
        that is (or goes) down fails the whole round; nothing is
        delivered partially.  Emits a single ``net.send`` span carrying
        the ``dsts`` list and a ``fanout`` count.
        """
        dsts = tuple(dsts)
        if not dsts:
            return
        if not self.env.tracer.enabled:
            yield from self._send(src, dsts, nbytes_each, base_latency)
            return
        yield from self._traced(src, dsts, nbytes_each, base_latency, op, {
            "src": src, "dsts": list(dsts), "nbytes": nbytes_each * len(dsts),
            "op": op, "fanout": len(dsts),
        })

    def _traced(self, src, dsts, nbytes_each, base_latency, op, args):
        """Generator: :meth:`_send` inside a ``net.send`` span."""
        tracer = self.env.tracer
        began = self.env.now
        span = tracer.begin("net.send", **args)
        try:
            yield from self._send(src, dsts, nbytes_each, base_latency)
        except Exception as error:
            tracer.end(span, ok=False, error=type(error).__name__)
            raise
        tracer.end(span, ok=True)
        tracer.latency("net", "send." + op, self.env.now - began)

    def reserve(self, src, dsts, nbytes_each, base_latency=None):
        """Book a transfer (one destination) or fan-out round of
        ``nbytes_each`` from ``src`` to every ``dsts`` (a tuple); returns
        ``(begin, delay)``.

        Raises a :class:`~repro.net.errors.NetworkError` subclass,
        booking nothing, if a path is down.  Otherwise the round begins
        at ``max(now, free_at)`` over the TX lane of ``src``, the RX
        lane of every ``dsts`` and the earliest-free core clock, and
        ends one wire time later, at ``now + delay``, which becomes
        every one of those clocks' ``free_at``.  With every lane free,
        ``delay`` is the wire time itself.  The caller waits ``delay``
        and then calls :meth:`land`.
        """
        if self._down_nodes or self._down_links:
            for dst in dsts:
                self._check_path(src, dst)
        # The slowest path's wire time (``wire * 1.0 == wire``).
        wire = self.transfer_time(nbytes_each, base_latency)
        if self._degraded:
            wire *= max(self.degrade_factor(src, dst) for dst in dsts)
        nics = self._nics
        now = self.env.now
        sender = nics[src]
        begin = sender.tx_free_at
        for dst in dsts:
            free_at = nics[dst].rx_free_at
            if free_at > begin:
                begin = free_at
        core = self._core
        if core is not None:
            slot = core.index(min(core))
            begin = max(begin, core[slot])
        if begin > now:
            delay = begin - now + wire
        else:
            begin, delay = now, wire
        end = now + delay
        sender.tx_free_at = end
        for dst in dsts:
            nics[dst].rx_free_at = end
        if core is not None:
            core[slot] = end
        return begin, delay

    def land(self, src, dsts, nbytes_each):
        """Complete a round booked with :meth:`reserve`, at its end:
        raise if a node or link died mid-flight (the whole round is
        lost), else count its bytes and message."""
        if self._down_nodes or self._down_links:
            for dst in dsts:
                self._check_path(src, dst)
        nics = self._nics
        nbytes = nbytes_each * len(dsts)
        nic = nics[src]
        nic.bytes_sent += nbytes
        nic.messages_sent += 1
        for dst in dsts:
            nics[dst].bytes_received += nbytes_each
        self.total_bytes += nbytes
        self.total_messages += 1

    def _send(self, src, dsts, nbytes_each, base_latency=None):
        """Generator: :meth:`reserve`, one wait, :meth:`land`."""
        delay = self.reserve(src, dsts, nbytes_each, base_latency)[1]
        env = self.env
        if not env.advance(delay):
            yield env.timeout(delay)
        self.land(src, dsts, nbytes_each)
