"""Allocation fragmentation: churn x allocator policy x balancing.

The paper's harvesting story (§II, §IV-D) assumes a donor's free bytes
are *usable*: the balancer reads per-node free space and moves pages
toward it.  Real allocators break that assumption — after enough
alloc/free churn a pool can report plenty of free bytes while none of
them form a contiguous region big enough for the next migrated page.
This experiment quantifies that gap.

Every cell builds a first-fit cluster whose receive pools run one
allocator policy (``uniform``: the idealized counter where free ==
allocatable; ``arena``: the jemalloc-style allocator with real extents,
runs and size classes).  Two hot nodes fill each other with large
64 KiB entries; the four cold nodes' receive pools are then churned
with small mixed-size allocations (fill to refusal, partial drains,
refills) modelling residual tenancy, leaving them *low-utilization but
swiss-cheesed*: raw free bytes are high, yet no 64 KiB run fits.

The balancer then harvests under one of three arms: ``off`` (no
balancer — the fragmentation-growth baseline), ``raw`` (plans against
raw free bytes, the pre-arena behaviour), and ``alloc`` (plans against
``allocatable_bytes`` from the telemetry plane).  Under ``raw`` on
arena pools every planned migration dies with a reserve-refused abort
on the fragmented receiver; under ``alloc`` the planner sees the truth
and stops over-promising.  The headline number is the **harvest-yield
gap**: ``yield(alloc) - yield(raw)`` per churn level, zero on uniform
pools and strictly positive on arena pools.

Two extra cells enable compaction: a daemon consolidates fragmented
receive pools (charged at the DRAM copy bandwidth of the calibration),
recovering contiguous extents so the ``alloc`` arm can move bytes
again instead of merely refusing to plan.
"""

import sys

from repro.experiments.engine import RunSpec, run_serial
from repro.metrics.reporting import format_table

EXPERIMENT = "allocation_fragmentation"

NUM_NODES = 6
#: Cold nodes whose receive pools get churned (the harvest receivers).
COLD_NODES = ("node2", "node3", "node4", "node5")
#: The large-entry size hot nodes store and the balancer migrates.
ENTRY_BYTES = 64 * 1024
#: Small sizes mixed during churn (all land in distinct arena classes).
SMALL_SIZES = (512, 1024, 2048, 4096)
#: Allocator policies swept (uniform is the idealized baseline).
ALLOC_POLICIES = ("uniform", "arena")
#: Balancing arms: none, raw-free planning, allocatable-aware planning.
BALANCE_ARMS = ("off", "raw", "alloc")
#: churn level -> (refill cycles, drain fraction per cycle).
CHURN = {"low": (1, 0.5), "high": (3, 0.8)}
#: Fraction of one receive pool each hot putter stores.
HOT_FILL = 0.9
#: Compact a pool when its external fragmentation exceeds this.
COMPACT_THRESHOLD = 0.3
#: External-fragmentation bound the compaction cells must stay under
#: (the CI gate; without compaction churned arena pools sit far above).
COMPACT_EXT_FRAG_BOUND = 0.5


def cells(scale=1.0, seed=0, duration=3.0, epoch=0.1):
    """The sweep: churn x allocator x balancing, plus compaction cells."""
    grid = [
        RunSpec.make(
            EXPERIMENT,
            workload=churn,
            backend=alloc,
            seed=seed,
            scale=scale,
            balance=balance,
            compact=False,
            duration=duration,
            epoch=epoch,
        )
        for churn in CHURN
        for alloc in ALLOC_POLICIES
        for balance in BALANCE_ARMS
    ]
    compact = [
        RunSpec.make(
            EXPERIMENT,
            workload=churn,
            backend="arena",
            seed=seed,
            scale=scale,
            balance="alloc",
            compact=True,
            duration=duration,
            epoch=epoch,
        )
        for churn in CHURN
    ]
    return grid + compact


def pool_slabs(scale):
    """Receive-pool slabs per node at this scale (min 2 x 1 MiB)."""
    return max(2, round(10 * scale))


def _build_cluster(spec):
    from repro.core.cluster import DisaggregatedCluster
    from repro.core.config import ClusterConfig
    from repro.hw.latency import MiB

    options = spec.options
    config = ClusterConfig(
        num_nodes=NUM_NODES,
        servers_per_node=1,
        server_memory_bytes=16 * MiB,
        donation_fraction=0.0,  # every put lands on the cluster tier
        receive_pool_slabs=pool_slabs(spec.scale),
        send_pool_slabs=2,
        replication_factor=1,
        placement_policy="first_fit",
        group_size=0,
        alloc_policy=spec.backend,
        seed=spec.seed,
    )
    return DisaggregatedCluster.build(config)


def churn_pool(pool, rng, cycles, drain_fraction):
    """Fragment one receive pool by direct alloc/free churn.

    Models residual tenancy below the harvesting layer: fill the pool
    with mixed small entries until every size class refuses, then run
    ``cycles`` rounds of (drain a seeded fraction, refill to refusal),
    finishing with one last drain.  On the uniform backend this leaves
    plain counters (free == allocatable); on the arena backend it
    leaves live small runs pinning every extent, so raw free bytes are
    high while nothing entry-sized fits.  Returns the live entries.
    """
    live = []
    random = rng.random
    reserve_entry = pool.reserve_entry

    def fill():
        while True:
            order = sorted(SMALL_SIZES, key=lambda _size: random())
            placed = False
            for size in order:
                entry = reserve_entry(size)
                if entry is not None:
                    live.append(entry)
                    placed = True
            if not placed:
                return

    def drain():
        rng.shuffle(live)
        cut = int(len(live) * drain_fraction)
        for entry in live[:cut]:
            pool.release_entry(entry)
        del live[:cut]

    fill()
    for _cycle in range(cycles):
        drain()
        fill()
    drain()
    return live


def _compaction_daemon(cluster, epoch, totals):
    """Generator: compact fragmented receive pools once per epoch.

    Copy cost is charged at the calibrated shared-memory DRAM copy
    bandwidth — compaction is not free, it trades copy time for
    contiguity.
    """
    env = cluster.env
    copy_bandwidth = cluster.config.calibration.shared_memory.copy_bandwidth
    while True:
        yield env.timeout(epoch)
        for node in cluster.nodes():
            stats = node.receive_pool.frag_stats()
            if stats.external_fragmentation <= COMPACT_THRESHOLD:
                continue
            moved = node.receive_pool.compact()
            if moved:
                totals["moved"] += moved
                yield env.timeout(moved / copy_bandwidth)


def _pool_rows(cluster):
    from repro.balance.telemetry import HARVEST_GRAIN

    rows = {}
    for node in cluster.nodes():
        row = node.receive_pool.frag_stats().as_row()
        row["harvest_allocatable"] = node.receive_pool.allocatable_bytes(
            HARVEST_GRAIN
        )
        rows[node.node_id] = row
    return rows


def _cold_summary(pool_rows):
    """Fold the cold nodes' rows into the quantities the report plots."""
    cold = [pool_rows[node_id] for node_id in COLD_NODES]
    free = sum(row["free_bytes"] for row in cold)
    allocatable = sum(row["harvest_allocatable"] for row in cold)
    return {
        "free_bytes": free,
        "allocatable_bytes": allocatable,
        "unusable_free_bytes": free - allocatable,
        "ext_frag_mean": sum(
            row["external_fragmentation"] for row in cold
        ) / len(cold),
        "ext_frag_max": max(row["external_fragmentation"] for row in cold),
    }


def compute(spec):
    from repro.hw.latency import MiB

    options = spec.options
    horizon = options["duration"]
    load_window = 0.4 * horizon
    churn_start = 0.5 * horizon
    cluster = _build_cluster(spec)
    env = cluster.env
    capacity = pool_slabs(spec.scale) * cluster.config.slab_bytes
    cycles, drain_fraction = CHURN[spec.workload]

    # Phase 1 — the two hot nodes flood each other with large entries
    # (first-fit excludes self, so node0 fills node1 and vice versa).
    def drive(server, count, gap, tag):
        for i in range(count):
            yield env.timeout(gap)
            yield from server.ldmc.put(("frag", tag, i), ENTRY_BYTES)

    for node_id in ("node0", "node1"):
        count = int(HOT_FILL * capacity / ENTRY_BYTES)
        server = cluster.node(node_id).servers[0]
        env.process(
            drive(server, count, load_window / count, node_id),
            name="drive:" + node_id,
        )
    env.run(until=churn_start)

    # Phase 2 — churn the cold receive pools into swiss cheese.
    residual = {}
    for node_id in COLD_NODES:
        rng = cluster.rng.stream("alloc-churn/" + node_id)
        residual[node_id] = churn_pool(
            cluster.node(node_id).receive_pool, rng, cycles, drain_fraction
        )
    pools_after_churn = _pool_rows(cluster)

    # Phase 3 — harvest (or don't) for the rest of the horizon.
    compact_totals = {"moved": 0}
    if options["compact"]:
        env.process(
            _compaction_daemon(cluster, options["epoch"], compact_totals),
            name="compactor",
        )
    balancer = None
    if options["balance"] != "off":
        balancer = cluster.attach_balancer(
            policy="greedy",
            epoch=options["epoch"],
            start=True,
            respect_allocatable=(options["balance"] == "alloc"),
        )
    env.run(until=horizon)

    pools_final = _pool_rows(cluster)
    utils = [
        (
            node.receive_pool.used_bytes / node.receive_pool.capacity_bytes
            if node.receive_pool.capacity_bytes
            else 0.0
        )
        for node in cluster.nodes()
    ]
    metrics = balancer.metrics.snapshot() if balancer is not None else None
    return {
        "metrics": metrics,
        "cold_after_churn": _cold_summary(pools_after_churn),
        "cold_final": _cold_summary(pools_final),
        "pools_final": pools_final,
        "residual_entries": {
            node_id: len(entries) for node_id, entries in residual.items()
        },
        "final_utils": utils,
        "util_spread": max(utils) - min(utils),
        "compact_moved_bytes": compact_totals["moved"],
        "network_mb": cluster.fabric.total_bytes / MiB,
    }


def report(results):
    indexed = {
        (
            spec.workload,
            spec.backend,
            spec.options["balance"],
            spec.options["compact"],
        ): payload
        for spec, payload in results
    }
    rows = []
    for (churn, alloc, balance, compact), payload in indexed.items():
        metrics = payload["metrics"]
        cold = payload["cold_final"]
        rows.append(
            {
                "churn": churn,
                "alloc": alloc,
                "balance": balance,
                "compact": compact,
                "ext_frag": cold["ext_frag_mean"],
                "free_mb": cold["free_bytes"] / (1024.0 * 1024.0),
                "unusable_mb": (
                    cold["unusable_free_bytes"] / (1024.0 * 1024.0)
                ),
                "planned_mb": (
                    metrics["planned_bytes"] / (1024.0 * 1024.0)
                    if metrics
                    else 0.0
                ),
                "moved_mb": (
                    metrics["moved_bytes"] / (1024.0 * 1024.0)
                    if metrics
                    else 0.0
                ),
                "aborted": metrics["migrations_aborted"] if metrics else 0,
                "yield": metrics["harvest_yield"] if metrics else None,
                "compact_mb": (
                    payload["compact_moved_bytes"] / (1024.0 * 1024.0)
                ),
            }
        )
    gaps = []
    for churn in CHURN:
        for alloc in ALLOC_POLICIES:
            raw = indexed.get((churn, alloc, "raw", False))
            aware = indexed.get((churn, alloc, "alloc", False))
            if raw is None or aware is None:
                continue
            yield_raw = raw["metrics"]["harvest_yield"]
            yield_alloc = aware["metrics"]["harvest_yield"]
            gaps.append(
                {
                    "churn": churn,
                    "alloc": alloc,
                    "yield_raw": yield_raw,
                    "yield_alloc": yield_alloc,
                    "yield_gap": yield_alloc - yield_raw,
                    "aborted_raw": raw["metrics"]["migrations_aborted"],
                    "aborted_alloc": aware["metrics"]["migrations_aborted"],
                }
            )
    return {"rows": rows, "gaps": gaps}


def arena_gap_rows(result):
    """The gap rows on arena cells — where the yield gap must be > 0."""
    return [row for row in result["gaps"] if row["alloc"] == "arena"]


def compaction_rows(result):
    """The compaction cells' rows — gated on staying defragmented."""
    return [row for row in result["rows"] if row["compact"]]


def run(scale=1.0, seed=0, duration=3.0, epoch=0.1):
    """Fragmentation and harvest yield per (churn, allocator, arm)."""
    return run_serial(
        sys.modules[__name__],
        scale=scale,
        seed=seed,
        duration=duration,
        epoch=epoch,
    )


def render(result):
    cells_table = format_table(
        result["rows"],
        title=(
            "Allocation fragmentation — external fragmentation and "
            "harvest outcome (churn x allocator x balancing arm)"
        ),
        float_format="{:.4g}",
    )
    gaps_table = format_table(
        result["gaps"],
        title=(
            "Harvest-yield gap — allocatable-aware vs raw-free planning"
        ),
        float_format="{:.4g}",
    )
    return cells_table + "\n\n" + gaps_table


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
