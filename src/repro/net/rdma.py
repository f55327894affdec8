"""RDMA verbs model: memory regions, queue pairs, one- and two-sided ops.

Follows the access model the paper lays out in Section IV-G:

* **registration** — memory used by RDMA must be registered (pinned and
  mapped) first, which costs real time; slab registration/deregistration
  in the core system goes through this;
* **one-sided READ/WRITE** — data-plane operations that complete without
  the remote CPU; used for the disaggregated-memory data path;
* **two-sided SEND/RECV** — message-passing with receiver involvement;
  used for the control plane (placement, leases, leader election);
* **reliable connection (RC)** — in-order, at-most-once delivery; a
  failed peer moves the queue pair to the ERROR state and every further
  operation fails fast.
"""

from itertools import count

from repro.net.errors import ConnectionFailed, NetworkError
from repro.sim import Store

_region_keys = count(1)


class RemoteAccessError(NetworkError):
    """A one-sided operation referenced an invalid/revoked memory region."""


class MemoryRegion:
    """A registered, remotely accessible memory region."""

    def __init__(self, owner_node_id, size):
        self.rkey = next(_region_keys)
        self.owner_node_id = owner_node_id
        self.size = size
        self.valid = True

    def __repr__(self):
        return "<MR rkey={} node={!r} size={} {}>".format(
            self.rkey,
            self.owner_node_id,
            self.size,
            "valid" if self.valid else "revoked",
        )


class Message:
    """A two-sided message delivered to the remote receive queue."""

    __slots__ = ("src", "dst", "body", "nbytes")

    def __init__(self, src, dst, body, nbytes):
        self.src = src
        self.dst = dst
        self.body = body
        self.nbytes = nbytes


class QueuePair:
    """A reliable-connected queue pair between two nodes."""

    STATE_READY = "RTS"
    STATE_ERROR = "ERROR"
    STATE_CLOSED = "CLOSED"

    def __init__(self, local_device, remote_device):
        self.local = local_device
        self.remote = remote_device
        self.state = self.STATE_READY
        self.ops_completed = 0

    def __repr__(self):
        return "<QP {!r}->{!r} {}>".format(
            self.local.node_id, self.remote.node_id, self.state
        )

    def _require_ready(self):
        if self.state != self.STATE_READY:
            raise ConnectionFailed(
                self.local.node_id, self.remote.node_id, "QP in " + self.state
            )

    def _fail(self):
        self.state = self.STATE_ERROR

    def check_region(self, region, nbytes):
        """Raise :class:`RemoteAccessError` unless a one-sided op of
        ``nbytes`` may target ``region``."""
        if not region.valid:
            raise RemoteAccessError("region {!r} revoked".format(region))
        if region.owner_node_id != self.remote.node_id:
            raise RemoteAccessError(
                "region {!r} not owned by {!r}".format(region, self.remote.node_id)
            )
        if nbytes > region.size:
            raise RemoteAccessError(
                "{} bytes exceeds region size {}".format(nbytes, region.size)
            )

    # -- one-sided (data plane) ---------------------------------------------

    def write(self, region, nbytes):
        """Generator: one-sided RDMA WRITE of ``nbytes`` into ``region``."""
        self._require_ready()
        self.check_region(region, nbytes)
        env = self.local.env
        overhead = self.local.fabric.spec.per_message_overhead
        if not env.advance(overhead):
            yield env.timeout(overhead)
        try:
            yield from self.local.fabric.transfer(
                self.local.node_id, self.remote.node_id, nbytes
            )
        except NetworkError:
            self._fail()
            raise
        self.ops_completed += 1

    def read(self, region, nbytes):
        """Generator: one-sided RDMA READ of ``nbytes`` from ``region``."""
        self._require_ready()
        self.check_region(region, nbytes)
        env = self.local.env
        overhead = self.local.fabric.spec.per_message_overhead
        if not env.advance(overhead):
            yield env.timeout(overhead)
        try:
            # Data flows remote -> local; request propagation is folded
            # into the base verb latency.
            yield from self.local.fabric.transfer(
                self.remote.node_id, self.local.node_id, nbytes
            )
        except NetworkError:
            self._fail()
            raise
        self.ops_completed += 1

    # -- two-sided (control plane) -------------------------------------------

    def send(self, body, nbytes):
        """Generator: SEND ``body`` (accounted as ``nbytes``) to the peer.

        The message lands in the peer device's receive queue
        (:meth:`RdmaDevice.recv`).
        """
        self._require_ready()
        spec = self.local.fabric.spec
        yield self.local.env.timeout(spec.per_message_overhead)
        try:
            yield from self.local.fabric.transfer(
                self.local.node_id,
                self.remote.node_id,
                nbytes,
                base_latency=spec.rdma_latency + spec.send_recv_extra,
                op="control",
            )
        except NetworkError:
            self._fail()
            raise
        message = Message(self.local.node_id, self.remote.node_id, body, nbytes)
        yield self.remote.inbox.put(message)
        self.ops_completed += 1

    def close(self):
        """Tear the connection down locally."""
        self.state = self.STATE_CLOSED


class RdmaDevice:
    """The per-node RDMA endpoint: NIC + regions + connections + inbox."""

    #: Connection establishment: three-way CM handshake over the wire.
    HANDSHAKE_MESSAGES = 3
    HANDSHAKE_MESSAGE_BYTES = 256

    def __init__(self, env, fabric, node_id):
        self.env = env
        self.fabric = fabric
        self.node_id = node_id
        self.nic = fabric.add_node(node_id)
        self.regions = {}
        self.inbox = Store(env, name="inbox:{}".format(node_id))
        self.registered_bytes = 0
        self._qps = {}
        self._peer_qps = []  # QPs other devices hold toward us

    # -- memory registration --------------------------------------------------

    def register_memory(self, size):
        """Generator: register ``size`` bytes; returns a :class:`MemoryRegion`."""
        if size <= 0:
            raise ValueError("region size must be positive")
        delay = self.fabric.spec.registration_time
        if not self.env.advance(delay):
            yield self.env.timeout(delay)
        region = MemoryRegion(self.node_id, size)
        self.regions[region.rkey] = region
        self.registered_bytes += size
        return region

    def deregister_memory(self, region):
        """Revoke a region; in-flight one-sided ops against it will fail."""
        if region.rkey in self.regions:
            del self.regions[region.rkey]
            self.registered_bytes -= region.size
        region.valid = False

    # -- connection management -------------------------------------------------

    def connect(self, remote_device, retry=None, rng=None):
        """Generator: establish (or reuse) an RC queue pair to a peer.

        ``retry`` (a :class:`~repro.net.retry.RetryPolicy`) re-runs the
        whole CM handshake with exponential backoff before giving up
        with :class:`~repro.net.errors.ConnectionFailed`.
        """
        cached = self.ready_qp(remote_device.node_id)
        if cached is not None:
            return cached
        if retry is None:
            yield from self._handshake(remote_device)
        else:
            from repro.net.retry import retrying

            yield from retrying(
                self.env,
                retry,
                lambda: self._handshake(remote_device),
                retry_on=(ConnectionFailed,),
                rng=rng,
            )
        qp = QueuePair(self, remote_device)
        self._qps[remote_device.node_id] = qp
        remote_device._peer_qps.append(qp)
        return qp

    def ready_qp(self, node_id):
        """The cached queue pair to ``node_id`` if it is usable (what
        :meth:`connect` reuses without a handshake), or ``None``."""
        qp = self._qps.get(node_id)
        if qp is not None and qp.state == QueuePair.STATE_READY:
            return qp
        return None

    def _handshake(self, remote_device):
        """Generator: one three-way CM handshake attempt over the wire."""
        spec = self.fabric.spec
        for _ in range(self.HANDSHAKE_MESSAGES):
            try:
                yield from self.fabric.transfer(
                    self.node_id,
                    remote_device.node_id,
                    self.HANDSHAKE_MESSAGE_BYTES,
                    base_latency=spec.rdma_latency + spec.send_recv_extra,
                )
            except NetworkError as error:
                raise ConnectionFailed(
                    self.node_id, remote_device.node_id, str(error)
                )

    def recv(self):
        """Event: the next message delivered to this device."""
        return self.inbox.get()

    def crash(self):
        """Drop all state, mirroring a node crash.

        Local QPs error, QPs that peers hold toward this node error (they
        would observe retry exhaustion), all regions are revoked, and
        undelivered inbox messages die with the node's memory.
        """
        self.inbox.items.clear()
        for qp in self._qps.values():
            qp._fail()
        self._qps.clear()
        for qp in self._peer_qps:
            qp._fail()
        self._peer_qps = []
        for region in list(self.regions.values()):
            self.deregister_memory(region)
