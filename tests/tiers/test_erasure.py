"""Unit and integration tests for the erasure-coded remote tier."""

import pytest

from repro.core.cluster import DisaggregatedCluster
from repro.experiments.runner import default_cluster_config
from repro.mem.page import make_pages
from repro.swap.factory import make_swap_backend
from repro.tiers.erasure import StripeCodec
from repro.tiers.redundant import PlacementMap


class TestStripeCodec:
    def test_roundtrip_from_any_k_fragments(self):
        codec = StripeCodec(4, 2)
        data = bytes(range(256)) * 16  # 4096 bytes
        fragments = codec.encode(data)
        assert len(fragments) == 6
        assert all(len(f) == 1024 for f in fragments)
        # Data fragments are verbatim slices (systematic code).
        assert b"".join(fragments[:4]) == data
        # Every 4-subset of the 6 fragments reconstructs bit-identically.
        import itertools

        for keep in itertools.combinations(range(6), 4):
            subset = {index: fragments[index] for index in keep}
            assert codec.reconstruct(subset, len(data)) == data, keep

    def test_single_parity_degenerates_to_xor(self):
        codec = StripeCodec(3, 1)
        data = b"erasure coding pays 1.33x, not 3x"
        fragments = codec.encode(data)
        frag = codec.fragment_size(len(data))
        xor = bytearray(frag)
        for shard in fragments[:3]:
            for offset, value in enumerate(shard):
                xor[offset] ^= value
        assert fragments[3] == bytes(xor)
        assert codec.reconstruct(
            {0: fragments[0], 2: fragments[2], 3: fragments[3]}, len(data)
        ) == data

    def test_odd_sizes_pad_and_trim(self):
        codec = StripeCodec(4, 2)
        for size in (1, 7, 4095, 4097):
            data = bytes((i * 37) % 256 for i in range(size))
            fragments = codec.encode(data)
            subset = {5: fragments[5], 3: fragments[3], 1: fragments[1],
                      4: fragments[4]}
            assert codec.reconstruct(subset, size) == data, size

    def test_rebuild_fragment_matches_original_encoding(self):
        codec = StripeCodec(4, 2)
        data = bytes((i * 13) % 256 for i in range(4096))
        fragments = codec.encode(data)
        survivors = {0: fragments[0], 2: fragments[2], 4: fragments[4],
                     5: fragments[5]}
        assert codec.rebuild_fragment(survivors, 1, len(data)) == fragments[1]
        assert codec.rebuild_fragment(survivors, 3, len(data)) == fragments[3]

    def test_too_few_fragments_is_an_error(self):
        codec = StripeCodec(4, 2)
        fragments = codec.encode(b"x" * 4096)
        with pytest.raises(ValueError):
            codec.reconstruct({0: fragments[0], 1: fragments[1],
                               2: fragments[2]}, 4096)

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            StripeCodec(0, 2)
        with pytest.raises(ValueError):
            StripeCodec(4, 0)
        with pytest.raises(ValueError):
            StripeCodec(200, 100)


class TestStripeMap:
    def test_place_and_fragments(self):
        smap = PlacementMap(4, 2)
        smap.place(1, ["a", "b", "c", "d", "e", "f"])
        assert smap.fragments(1) == {0: "a", 1: "b", 2: "c", 3: "d",
                                     4: "e", 5: "f"}
        assert smap.holders(1) == ("a", "b", "c", "d", "e", "f")
        assert smap.pages_on("c") == [1]
        assert 1 in smap and len(smap) == 1
        assert smap.missing(1) == []

    def test_place_requires_distinct_full_stripe(self):
        smap = PlacementMap(4, 2)
        with pytest.raises(ValueError):
            smap.place(1, ["a", "b", "c"])
        with pytest.raises(ValueError):
            smap.place(1, ["a", "b", "c", "d", "e", "a"])

    def test_drop_node_splits_degraded_and_lost(self):
        smap = PlacementMap(2, 1)
        smap.place(1, ["a", "b", "c"])
        smap.place(2, ["a", "d", "e"])
        degraded, lost = smap.drop_node("a")
        assert degraded == [1, 2] and lost == []
        assert smap.missing(1) == [0]
        degraded, lost = smap.drop_node("b")
        assert degraded == [] and lost == [1]
        assert 1 not in smap and 2 in smap

    def test_set_fragment_rejects_duplicates_and_double_loads(self):
        smap = PlacementMap(2, 1)
        smap.place(1, ["a", "b", "c"])
        smap.drop_node("a")
        assert not smap.set_fragment(1, 1, "d")  # index 1 still held
        assert not smap.set_fragment(1, 0, "b")  # b already holds one
        assert smap.set_fragment(1, 0, "d")
        assert smap.fragments(1)[0] == "d"
        assert not smap.set_fragment(99, 0, "d")  # unknown page
        assert smap.incomplete() == []

    def test_remove_page_clears_both_indexes(self):
        smap = PlacementMap(2, 1)
        smap.place(1, ["a", "b", "c"])
        smap.remove_page(1)
        assert smap.fragments(1) == {}
        assert smap.pages_on("a") == []


def build(num_nodes=8, seed=11):
    config = default_cluster_config(seed=seed, num_nodes=num_nodes)
    cluster = DisaggregatedCluster.build(config)
    node = cluster.nodes()[0]
    backend = make_swap_backend(
        "ec-remote", node, cluster, rng=cluster.rng.stream("backend")
    )
    cluster.run_process(backend.setup())
    return cluster, node, backend


def swap_out_all(cluster, backend, pages):
    def job():
        for page in pages:
            yield from backend.swap_out(page)

    cluster.run_process(job())


class TestErasureCodedRemoteTier:
    def test_every_page_gets_full_distinct_stripe(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(8, owner="t")
        swap_out_all(cluster, backend, pages)
        frag = tier.codec.fragment_size(pages[0].size)
        for page in pages:
            holders = tier.map.holders(page.page_id)
            assert len(holders) == 6
        # Physical accounting: 6 fragments of nbytes/4 per page = 1.5x.
        used = sum(area.used_bytes for area in tier.areas.values())
        assert used == frag * 6 * len(pages)
        assert tier.overhead_x == pytest.approx(1.5)

    def test_reads_gather_the_data_fragments(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(4, owner="t")
        swap_out_all(cluster, backend, pages)
        cluster.run_process(backend.swap_in(pages[0]))
        assert tier.reads == 1
        assert tier.degraded_reconstructions == 0

    def test_crash_triggers_background_restriping(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(6, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.fragments(pages[0].page_id)[0]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.5)
        # With a spare peer available every missing fragment is rebuilt.
        assert tier.tracker.pages_lost.value == 0
        assert tier.fragments_rebuilt > 0
        for page in pages:
            assert tier.map.missing(page.page_id) == []
            assert victim not in tier.map.holders(page.page_id)
        snap = tier.tracker.snapshot()
        assert snap["repairs_completed"] == 1
        assert snap["repair_mean_s"] is not None

    def test_degraded_read_reconstructs_from_survivors(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(4, owner="t")
        swap_out_all(cluster, backend, pages)
        page = pages[0]
        # Lose the holder of data fragment 0 and read before the
        # background repair has had any simulated time to run.
        victim = tier.map.fragments(page.page_id)[0]
        cluster.crash_node(victim)
        cluster.run_process(backend.swap_in(page))
        assert tier.degraded_reconstructions == 1
        assert tier.tracker.degraded_reads.value == 1
        assert tier.fallback_reads == 0

    def test_losing_more_than_parity_falls_back_to_disk(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        page = pages[0]
        victims = [
            tier.map.fragments(page.page_id)[index] for index in range(3)
        ]
        for victim in victims:
            cluster.crash_node(victim)
        # Three of six fragments gone: below k=4, the page is lost from
        # the tier; a read is served by the degraded disk-backup path.
        assert page.page_id not in tier.map
        assert tier.tracker.pages_lost.value >= 1
        cluster.env.run(until=cluster.env.now + 0.5)
        cluster.run_process(backend.swap_in(page))
        assert tier.fallback_reads == 1
        assert tier.degraded_reconstructions == 0

    def test_rebooted_peer_is_readmitted_and_restriped_onto(self):
        # 6 peers exactly: no spare, so a crash leaves every stripe
        # missing a fragment until the victim is readmitted.
        cluster, _node, backend = build(num_nodes=7)
        tier = backend.tiers[0]
        pages = make_pages(5, owner="t")
        swap_out_all(cluster, backend, pages)
        victim = tier.map.fragments(pages[0].page_id)[0]
        cluster.crash_node(victim)
        cluster.env.run(until=cluster.env.now + 0.1)
        assert all(
            len(tier.map.missing(page.page_id)) == 1 for page in pages
        )
        cluster.run_process(cluster.reboot_node(victim))
        cluster.env.run(until=cluster.env.now + 0.5)
        assert victim in tier.areas
        assert tier.tracker.nodes_recovered.value == 1
        for page in pages:
            assert tier.map.missing(page.page_id) == []
            assert victim in tier.map.holders(page.page_id)

    def test_under_striped_write_spills_down(self):
        cluster, _node, backend = build(num_nodes=7)
        tier = backend.tiers[0]
        victim = sorted(tier.areas)[0]
        cluster.crash_node(victim)
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        # Five live peers < 6 fragments: every page spills below rather
        # than committing a short stripe.
        assert tier.stats.puts.value == 0
        for page in pages:
            label, _meta = backend.location(page.page_id)
            assert label is not None and label != tier.name

    def test_stripe_wider_than_the_peer_set_is_rejected(self):
        # Four nodes give each node three peers: a 4+2 stripe cannot be
        # placed, and the tier says so at construction instead of
        # spilling every page to disk.
        with pytest.raises(ValueError) as excinfo:
            build(num_nodes=4)
        message = str(excinfo.value)
        assert "6 fragments" in message and "has 3" in message

    def test_forget_releases_fragment_space(self):
        cluster, _node, backend = build()
        tier = backend.tiers[0]
        pages = make_pages(3, owner="t")
        swap_out_all(cluster, backend, pages)
        frag = tier.codec.fragment_size(pages[0].size)
        before = sum(area.used_bytes for area in tier.areas.values())
        backend.discard(pages[0])
        after = sum(area.used_bytes for area in tier.areas.values())
        assert before - after == frag * 6
        assert tier.map.fragments(pages[0].page_id) == {}

    def test_snapshot_reports_scheme_columns(self):
        cluster, _node, backend = build()
        pages = make_pages(2, owner="t")
        swap_out_all(cluster, backend, pages)
        row = backend.tier_breakdown()[0]
        assert row["scheme"] == "ec(4+2)"
        assert row["data_shards"] == 4 and row["parity_shards"] == 2
        assert row["overhead_x"] == pytest.approx(1.5)
        assert row["replication"] is None
        assert row["pages_lost"] == 0
        assert "repair_mean_s" in row and "degraded_reads" in row

    def test_degraded_read_emits_latency_row_and_spans(self):
        from repro.trace import runtime

        with runtime.session():
            cluster, _node, backend = build()
            tier = backend.tiers[0]
            pages = make_pages(4, owner="t")
            swap_out_all(cluster, backend, pages)
            page = pages[0]
            victim = tier.map.fragments(page.page_id)[0]
            cluster.crash_node(victim)
            cluster.run_process(backend.swap_in(page))
            tracer = cluster.env.tracer
            rows = {
                (row["category"], row["op"]): row
                for row in tracer.histogram_rows()
            }
            degraded = rows[("ec", "read.degraded")]
            assert degraded["count"] == 1
            assert degraded["p50_s"] > 0
            names = [e["name"] for e in tracer.events_json()]
            assert "ec.encode" in names
            assert "ec.reconstruct" in names
