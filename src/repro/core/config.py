"""Cluster configuration.

One :class:`ClusterConfig` describes a whole disaggregated-memory
deployment: topology, per-server memory, the donation fraction x% of
Section IV-F, placement/replication/grouping choices, and the hardware
calibration.  The defaults mirror a scaled-down version of the paper's
32-machine / 80-VM testbed.
"""

from dataclasses import dataclass, field, replace

from repro.hw.latency import DEFAULT_CALIBRATION, Calibration, MiB


@dataclass
class ClusterConfig:
    """Everything needed to build a :class:`~repro.core.cluster.DisaggregatedCluster`."""

    #: Number of physical nodes.
    num_nodes: int = 4
    #: Virtual servers hosted per node.
    servers_per_node: int = 2
    #: DRAM allocated to each virtual server at initialization time.
    server_memory_bytes: int = 64 * MiB
    #: Physical DRAM per node beyond the server allocations (host reserve).
    host_reserved_bytes: int = 16 * MiB
    #: Fraction of each server's memory donated to the node shared pool
    #: (the paper's x%, "10% initially, up to 40% or down to zero").
    donation_fraction: float = 0.25
    #: Slabs (of ``slab_bytes``) each node registers for its RDMA
    #: receive buffer pool — its donation to the cluster level.
    receive_pool_slabs: int = 16
    #: Slabs registered for the send (staging) pool.
    send_pool_slabs: int = 4
    #: Slab size for every pool.
    slab_bytes: int = 1 * MiB
    #: Chunk size classes used by pools (compressed page granularities
    #: plus larger classes for RDD partitions).
    size_classes: tuple = (512, 1024, 2048, 4096, 65536, 262144, 1048576)
    #: Allocation policy backing node pools: "slab" (memcached-style,
    #: the historical default), "uniform" (idealized single-counter
    #: baseline) or "arena" (jemalloc-style extents/runs with real
    #: fragmentation; see docs/ALLOCATION.md).
    alloc_policy: str = "slab"
    #: Replicas per remote entry ("triple replica modularity", §IV-D).
    replication_factor: int = 3
    #: Placement policy: "random", "round_robin", "weighted_round_robin",
    #: "power_of_two" (§IV-E) or "first_fit" (the deliberately skewed
    #: static baseline the balancing control plane corrects).
    placement_policy: str = "power_of_two"
    #: Nodes per coordination group (§IV-C); 0 means one flat group.
    group_size: int = 0
    #: Leader heartbeat period and handshake timeout (§IV-C).
    heartbeat_period: float = 0.5
    heartbeat_timeout: float = 2.0
    #: Free-DRAM fraction below which the eviction handler deregisters
    #: remote receive slabs (§IV-F policy 1).
    eviction_low_watermark: float = 0.1
    #: Remote-request rate above which ballooning is recommended
    #: (§IV-F policy 2), requests per second per server.
    balloon_request_rate: float = 1000.0
    #: Concurrent transfers the switch core admits; 0 = non-blocking
    #: full-bisection fabric (the paper's testbed).
    fabric_core_concurrency: int = 0
    #: Master RNG seed.
    seed: int = 0
    #: Hardware calibration table.
    calibration: Calibration = field(default_factory=lambda: DEFAULT_CALIBRATION)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.servers_per_node < 1:
            raise ValueError("servers_per_node must be >= 1")
        if not 0.0 <= self.donation_fraction <= 1.0:
            raise ValueError("donation_fraction must be in [0, 1]")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.group_size < 0:
            raise ValueError("group_size must be >= 0")
        if self.fabric_core_concurrency < 0:
            raise ValueError("fabric_core_concurrency must be >= 0")
        if self.group_size == 1:
            raise ValueError("group_size 1 is degenerate (no peers to share with)")
        if self.heartbeat_timeout <= self.heartbeat_period:
            raise ValueError("heartbeat_timeout must exceed heartbeat_period")
        if self.alloc_policy not in ("slab", "uniform", "arena"):
            raise ValueError(
                "alloc_policy must be 'slab', 'uniform' or 'arena'"
            )

    @property
    def total_servers(self):
        return self.num_nodes * self.servers_per_node

    @property
    def node_memory_bytes(self):
        """Physical DRAM installed per node."""
        return (
            self.servers_per_node * self.server_memory_bytes
            + self.host_reserved_bytes
        )

    def with_overrides(self, **kwargs):
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
