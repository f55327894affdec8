"""Unit and integration tests for the replicated remote tier."""

import pytest

from repro.core.cluster import DisaggregatedCluster
from repro.experiments.runner import default_cluster_config
from repro.mem.page import make_pages
from repro.swap.factory import make_swap_backend
from repro.tiers.redundant import PlacementMap


def replica_map(factor):
    """A replica map: ``factor`` copies are a k = 1 placement."""
    return PlacementMap(1, factor - 1)


class TestReplicaMap:
    def test_place_and_holders(self):
        rmap = replica_map(3)
        rmap.place(1, ("a", "b", "c"))
        assert rmap.holders(1) == ("a", "b", "c")
        assert rmap.pages_on("b") == [1]
        assert 1 in rmap and len(rmap) == 1

    def test_place_requires_holders(self):
        with pytest.raises(ValueError):
            replica_map(2).place(1, ())
        with pytest.raises(ValueError):
            replica_map(0)

    def test_drop_node_splits_orphans_and_lost(self):
        rmap = replica_map(2)
        rmap.place(1, ("a", "b"))
        rmap.place(2, ("a", "d"))
        rmap.drop_node("d")  # page 2 is left with its copy on "a" only
        rmap.place(3, ("b", "c"))
        orphans, lost = rmap.drop_node("a")
        assert orphans == [1]
        assert lost == [2]
        assert rmap.holders(1) == ("b",)
        assert 2 not in rmap
        assert rmap.holders(3) == ("b", "c")

    def test_add_holder_repairs_under_replication(self):
        rmap = replica_map(2)
        rmap.place(1, ("a", "b"))
        rmap.drop_node("a")
        assert rmap.incomplete() == [1]
        rmap.add_holder(1, "c")
        assert rmap.incomplete() == []
        assert rmap.holders(1) == ("b", "c")

    def test_add_holder_ignores_unknown_pages_and_duplicates(self):
        rmap = replica_map(2)
        rmap.add_holder(9, "a")
        assert 9 not in rmap
        rmap.place(1, ("a", "b"))
        rmap.add_holder(1, "a")
        assert rmap.holders(1) == ("a", "b")

    def test_remove_page_clears_both_indexes(self):
        rmap = replica_map(2)
        rmap.place(1, ("a", "b"))
        rmap.remove_page(1)
        assert rmap.holders(1) == ()
        assert rmap.pages_on("a") == []


def build(replication, seed=11, backend_name="replicated-remote",
          num_nodes=4):
    config = default_cluster_config(
        seed=seed, replication_factor=replication, num_nodes=num_nodes
    )
    cluster = DisaggregatedCluster.build(config)
    node = cluster.nodes()[0]
    backend = make_swap_backend(
        backend_name, node, cluster, rng=cluster.rng.stream("backend")
    )
    cluster.run_process(backend.setup())
    return cluster, node, backend


def swap_out_all(cluster, backend, pages):
    def job():
        for page in pages:
            yield from backend.swap_out(page)

    cluster.run_process(job())


class TestReplicatedRemoteTier:
    def test_every_page_gets_full_replica_set(self):
        cluster, _node, backend = build(replication=3)
        tier = backend.tiers[0]
        pages = make_pages(8, owner="t")
        swap_out_all(cluster, backend, pages)
        for page in pages:
            holders = tier.map.holders(page.page_id)
            assert len(holders) == 3
            assert len(set(holders)) == 3
        # Capacity accounting matches the copies written.
        used = sum(area.used_bytes for area in tier.areas.values())
        assert used == sum(page.size for page in pages) * 3

    def test_crash_triggers_re_replication(self):
        cluster, _node, backend = build(replication=2)
        tier = backend.tiers[0]
        pages = make_pages(6, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.holders(pages[0].page_id)[0]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.5)
        # With a third peer available every orphan is repaired.
        assert tier.tracker.pages_lost.value == 0
        assert tier.tracker.pages_re_replicated.value > 0
        for page in pages:
            assert len(tier.map.holders(page.page_id)) == 2
            assert victim not in tier.map.holders(page.page_id)
        snap = tier.tracker.snapshot()
        assert snap["repairs_completed"] == 1
        assert snap["repair_mean_s"] is not None

    def test_single_replica_loss_loses_pages_but_serves_degraded(self):
        cluster, _node, backend = build(replication=1)
        tier = backend.tiers[0]
        pages = make_pages(12, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.holders(pages[0].page_id)[0]
        doomed = [
            page for page in pages
            if tier.map.holders(page.page_id) == (victim,)
        ]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.5)
        assert tier.tracker.pages_lost.value == len(doomed) > 0
        # A read of a lost page is served by the degraded disk path.
        cluster.run_process(backend.swap_in(doomed[0]))
        assert tier.fallback_reads == 1
        assert tier.tracker.degraded_reads.value == 1

    def test_read_fails_over_to_surviving_replica(self):
        cluster, _node, backend = build(replication=2)
        tier = backend.tiers[0]
        pages = make_pages(4, owner="t")
        swap_out_all(cluster, backend, pages)
        page = pages[0]
        first_holder = tier.map.holders(page.page_id)[0]
        cluster.fabric.set_node_down(first_holder, down=True)
        cluster.run_process(backend.swap_in(page))
        assert tier.reads == 1
        assert tier.fallback_reads == 0

    def test_rebooted_peer_is_readmitted_and_topped_up(self):
        cluster, _node, backend = build(replication=3)
        tier = backend.tiers[0]
        pages = make_pages(5, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.holders(pages[0].page_id)[0]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.1)
        # Only two peers remain: repair cannot restore the third copy.
        assert all(
            len(tier.map.holders(page.page_id)) == 2 for page in pages
        )
        cluster.run_process(cluster.reboot_node(victim))
        cluster.env.run(until=cluster.env.now + 0.5)
        assert victim in tier.areas
        assert tier.tracker.nodes_recovered.value == 1
        for page in pages:
            assert len(tier.map.holders(page.page_id)) == 3

    def test_under_replicated_write_spills_down(self):
        cluster, _node, backend = build(replication=3)
        tier = backend.tiers[0]
        victim = sorted(tier.areas)[0]
        cluster.crash_node(victim)
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        # Two live peers < replication=3: every page spills below.
        assert tier.stats.puts.value == 0
        for page in pages:
            label, _meta = backend.location(page.page_id)
            assert label is not None and label != tier.name

    def test_replica_set_wider_than_the_peer_set_is_rejected(self):
        # Three nodes give each node two peers: r = 3 cannot be placed,
        # and the tier says so at construction instead of spilling
        # every page to disk.
        with pytest.raises(ValueError) as excinfo:
            build(replication=3, num_nodes=3)
        message = str(excinfo.value)
        assert "3 fragments" in message and "has 2" in message
        build(replication=2, num_nodes=3)  # two copies fit two peers

    def test_forget_releases_replica_space(self):
        cluster, _node, backend = build(replication=2)
        tier = backend.tiers[0]
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        before = sum(area.used_bytes for area in tier.areas.values())
        backend.discard(pages[0])
        after = sum(area.used_bytes for area in tier.areas.values())
        assert before - after == pages[0].size * 2
        assert tier.map.holders(pages[0].page_id) == ()

    def test_snapshot_reports_replication_columns(self):
        cluster, _node, backend = build(replication=2)
        pages = make_pages(2, owner="t")
        swap_out_all(cluster, backend, pages)
        row = backend.tier_breakdown()[0]
        assert row["replication"] == 2
        assert row["pages_lost"] == 0
        assert "repair_mean_s" in row and "degraded_reads" in row
        assert row["write_protocol"] == "write-all"
        assert row["write_rounds"] == 2 * row["puts"]
        assert row["overhead_x"] == pytest.approx(2.0)

    def test_degraded_read_emits_latency_row(self):
        from repro.trace import runtime

        with runtime.session():
            cluster, _node, backend = build(replication=1)
            tier = backend.tiers[0]
            pages = make_pages(6, owner="t")
            swap_out_all(cluster, backend, pages)
            victim = tier.map.holders(pages[0].page_id)[0]
            doomed = next(
                page for page in pages
                if tier.map.holders(page.page_id) == (victim,)
            )
            cluster.crash_node(victim)
            cluster.env.run(until=cluster.env.now + 0.5)
            cluster.run_process(backend.swap_in(doomed))
            rows = {
                (row["category"], row["op"]): row
                for row in cluster.env.tracer.histogram_rows()
            }
            degraded = rows[("tier", "replicated.read.degraded")]
            assert degraded["count"] == 1
            assert degraded["p50_s"] > 0


class TestOneRttWriteProtocol:
    def test_invalid_protocol_is_rejected(self):
        from repro.tiers.replicated import ReplicatedRemoteTier

        cluster, node, _backend = build(replication=2)
        with pytest.raises(ValueError):
            ReplicatedRemoteTier(node, cluster, write_protocol="two-phase")

    def test_put_costs_one_round_and_full_replica_set(self):
        cluster, _node, backend = build(
            replication=3, backend_name="replicated-remote-1rtt"
        )
        tier = backend.tiers[0]
        assert tier.write_protocol == "one-rtt"
        pages = make_pages(8, owner="t")
        swap_out_all(cluster, backend, pages)
        assert tier.stats.puts.value == 8
        assert tier.write_rounds == 8  # one fan-out round per put
        for page in pages:
            holders = tier.map.holders(page.page_id)
            assert len(holders) == 3 and len(set(holders)) == 3
        used = sum(area.used_bytes for area in tier.areas.values())
        assert used == sum(page.size for page in pages) * 3

    def test_put_emits_single_fanout_span(self):
        from repro.trace import runtime

        with runtime.session():
            cluster, _node, backend = build(
                replication=3, backend_name="replicated-remote-1rtt"
            )
            pages = make_pages(4, owner="t")
            swap_out_all(cluster, backend, pages)
            sends = [
                event for event in cluster.env.tracer.events_json()
                if event["name"] == "net.send"
                and event["args"].get("fanout")
            ]
            # One fan-out span per put, each a 3-way round — against
            # write-all's three serialized per-copy rounds.
            assert len(sends) == 4
            assert all(event["args"]["fanout"] == 3 for event in sends)
            assert all(len(event["args"]["dsts"]) == 3 for event in sends)
            assert all(event["args"]["ok"] for event in sends)

    def test_one_rtt_is_faster_than_write_all(self):
        def swap_out_time(backend_name):
            cluster, _node, backend = build(
                replication=3, backend_name=backend_name
            )
            pages = make_pages(16, owner="t")
            began = cluster.env.now
            swap_out_all(cluster, backend, pages)
            return cluster.env.now - began

        assert swap_out_time("replicated-remote-1rtt") < swap_out_time(
            "replicated-remote"
        )

    def test_rewrite_detects_conflict_in_place(self):
        cluster, _node, backend = build(
            replication=3, backend_name="replicated-remote-1rtt"
        )
        tier = backend.tiers[0]
        pages = make_pages(2, owner="t")
        swap_out_all(cluster, backend, pages)
        assert tier.conflicts_detected == 0

        def rewrite():
            yield from backend.swap_in(pages[0])
            yield from backend.swap_out(pages[0])

        cluster.run_process(rewrite())
        # The second incarnation found the first's version tag on its
        # targets: a conflict detected by the in-place comparison, with
        # no extra round.
        assert tier.conflicts_detected == 1
        assert tier.write_rounds == tier.stats.puts.value

    def test_failed_round_delivers_nothing_and_spills(self):
        cluster, _node, backend = build(
            replication=3, backend_name="replicated-remote-1rtt"
        )
        tier = backend.tiers[0]
        victim = sorted(tier.areas)[0]
        cluster.fabric.set_node_down(victim, down=True)
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        # The fan-out includes the dead target: all-or-nothing, so the
        # round fails whole and every page spills below.
        assert tier.stats.puts.value == 0
        for page in pages:
            label, _meta = backend.location(page.page_id)
            assert label is not None and label != tier.name
        used = sum(area.used_bytes for area in tier.areas.values())
        assert used == 0


class TestBatchedTopUp:
    def test_readmission_top_up_is_batched_not_per_page(self):
        """Regression pin for merged re-replication: topping a
        readmitted peer up with N pages must cost ~2 merged transfers
        per source batch, strictly cheaper than the N per-page round
        trips the sequential implementation paid."""
        cluster, node, backend = build(replication=3)
        tier = backend.tiers[0]
        pages = make_pages(96, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.holders(pages[0].page_id)[0]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.1)
        # Only two peers remain: repair cannot restore the third copy.
        assert all(
            len(tier.map.holders(page.page_id)) == 2 for page in pages
        )
        cluster.run_process(cluster.reboot_node(victim))
        recovery_began = cluster.env.now
        deadline = recovery_began + 0.5
        # Step the clock finely so ``env.now`` at full redundancy bounds
        # the actual recovery time to within 10us.
        while cluster.env.now < deadline and any(
            len(tier.map.holders(page.page_id)) < 3 for page in pages
        ):
            cluster.env.run(until=cluster.env.now + 1e-5)
        assert tier.tracker.nodes_recovered.value == 1
        assert all(
            len(tier.map.holders(page.page_id)) == 3 for page in pages
        )
        # Sequential lower bound: each page pays at least a read and a
        # write message (per-message overhead + base RDMA latency each),
        # serialized on the sender.  The batched path must beat it.
        spec = cluster.fabric.spec
        per_page_floor = 2 * (spec.per_message_overhead + spec.rdma_latency)
        elapsed = cluster.env.now - recovery_began
        assert elapsed < len(pages) * per_page_floor

    def test_top_up_batches_split_at_the_byte_cap(self):
        from repro.tiers.replicated import ReplicatedRemoteTier

        cluster, node, _backend = build(replication=2)
        tier = ReplicatedRemoteTier(node, cluster)
        pages = [("p{}".format(index), 300 * 1024) for index in range(8)]
        batches = list(tier._chunk_batches(pages))
        # 300 KiB pages against a 1 MiB cap: three per batch.
        assert [len(batch) for batch in batches] == [3, 3, 2]
        assert all(
            sum(stored for _page, stored in batch)
            <= ReplicatedRemoteTier.TOP_UP_BATCH_BYTES
            for batch in batches
        )
