"""Smoke + shape tests for the discussion sweeps and motivation scenario."""

from repro.experiments import discussion_sweeps, motivation_imbalance

TINY = 0.1


def test_tier_ladder_ordering():
    result = discussion_sweeps.run_tier_ladder(scale=TINY)
    times = {row["tier"]: row["completion_s"] for row in result["rows"]}
    assert times["shared_memory"] <= times["remote_rdma"]
    assert times["remote_rdma"] < times["ssd"] < times["hdd"]


def test_transport_rdma_beats_tcp():
    result = discussion_sweeps.run_transport(scale=TINY)
    rows = {row["transport"]: row for row in result["rows"]}
    assert rows["tcp_10g"]["completion_s"] > rows["rdma_56g"]["completion_s"]


def test_full_disaggregation_trend():
    result = discussion_sweeps.run_full_disaggregation(scale=TINY)
    slowdowns = [row["slowdown_vs_node_local"] for row in result["rows"]]
    assert slowdowns == sorted(slowdowns)
    assert slowdowns[0] < slowdowns[-1]


def test_motivation_policies_ordered():
    result = motivation_imbalance.run(scale=TINY, working_set_pages=4096)
    rows = {row["policy"]: row for row in result["rows"]}
    assert rows["node_level"]["completion_s"] < rows["static"]["completion_s"]
    assert (
        rows["node_plus_cluster"]["completion_s"]
        <= rows["node_level"]["completion_s"] * 1.001
    )
    assert rows["node_level"]["idle_pool_utilization"] > 0


def test_ballooning_ablation_shape():
    from repro.experiments import ablations

    result = ablations.run_ballooning(scale=TINY)
    rows = {row["ballooning"]: row for row in result["rows"]}
    assert (
        rows["adaptive"]["final_capacity_pages"]
        >= rows["off"]["final_capacity_pages"]
    )


def test_cli_registry_covers_everything():
    from repro.experiments.registry import EXPERIMENTS

    assert {"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "ablations", "discussion",
            "motivation"} <= set(EXPERIMENTS)


def test_cli_list_and_run(capsys):
    from repro.experiments.__main__ import main

    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "fig7" in output
    assert main(["run", "table1"]) == 0
    output = capsys.readouterr().out
    assert "pagerank" in output
