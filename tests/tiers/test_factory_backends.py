"""The factory's declarative cascades: naming, errors, new backends."""

import pytest

from repro.experiments.runner import (
    RunContext,
    run_paging_workload,
)
from repro.metrics.reporting import format_tier_breakdown
from repro.swap.factory import BACKEND_NAMES, make_swap_backend
from repro.workloads.ml import ML_WORKLOADS


@pytest.fixture(scope="module")
def spec():
    return ML_WORKLOADS["logistic_regression"].with_overrides(
        pages=256, iterations=2
    )


def test_unknown_backend_lists_valid_names():
    with pytest.raises(ValueError) as excinfo:
        make_swap_backend("betamax", None, None)
    message = str(excinfo.value)
    assert "betamax" in message
    for name in BACKEND_NAMES:
        assert name in message


def test_every_named_backend_is_a_cascade(cluster_factory=None):
    from repro.core.cluster import DisaggregatedCluster
    from repro.experiments.runner import default_cluster_config
    from repro.tiers.cascade import TierCascade

    # Seven nodes: ec-remote's 4+2 stripe needs six peers.
    cluster = DisaggregatedCluster.build(
        default_cluster_config(seed=3, num_nodes=7)
    )
    node = cluster.nodes()[0]
    for name in BACKEND_NAMES:
        backend = make_swap_backend(
            name, node, cluster, rng=cluster.rng.stream(name)
        )
        assert isinstance(backend, TierCascade), name
        assert backend.name == name
        assert backend.describe_stack(), name


EXPECTED_STACKS = {
    "linux": "disk",
    "zswap": "pool -> disk",
    "nbdx": "remote -> disk-backup",
    "infiniswap": "remote -> disk-backup",
    "fastswap": "sm -> remote -> disk",
    "xmempod": "sm -> remote -> ssd",
    "nvm": "nvm",
    "nvm-remote": "nvm -> remote -> disk",
    "zswap-remote": "pool -> remote -> disk-backup",
}


def test_expected_tier_stacks():
    from repro.core.cluster import DisaggregatedCluster
    from repro.experiments.runner import default_cluster_config

    cluster = DisaggregatedCluster.build(default_cluster_config(seed=3))
    node = cluster.nodes()[0]
    for name, stack in EXPECTED_STACKS.items():
        backend = make_swap_backend(
            name, node, cluster, rng=cluster.rng.stream(name)
        )
        assert backend.describe_stack() == stack, name


def test_nvm_remote_backend_runs_and_spills(spec):
    result = run_paging_workload("nvm-remote", spec, 0.5, seed=5)
    assert result.completion_time > 0
    assert result.tier_stack == "nvm -> remote -> disk"
    rows = {row["tier"]: row for row in result.tier_stats}
    # The small NVM device takes the first pages, overflow goes remote.
    assert rows["nvm"]["puts"] > 0
    assert rows["nvm"]["gets"] > 0
    # Compression is on: NVM stores less than a raw page per put.
    assert rows["nvm"]["bytes_in"] < rows["nvm"]["puts"] * 4096


def test_zswap_remote_backend_runs(spec):
    result = run_paging_workload("zswap-remote", spec, 0.5, seed=5)
    assert result.completion_time > 0
    assert result.tier_stack == "pool -> remote -> disk-backup"
    rows = {row["tier"]: row for row in result.tier_stats}
    assert rows["pool"]["puts"] > 0
    assert rows["pool"]["gets"] > 0
    # Healthy cluster: the disk backup never serves a read.
    assert rows["disk-backup"]["gets"] == 0


def test_run_results_carry_context_and_render(spec):
    result = run_paging_workload("fastswap", spec, 0.5, seed=5)
    assert result.tier_stack == "sm -> remote -> disk"
    assert [row["tier"] for row in result.tier_stats] == [
        "sm", "remote", "disk",
    ]
    context_rows = result.context.tier_rows()
    assert len(context_rows) == 3
    assert context_rows[0]["backend"] == "fastswap"
    assert context_rows[0]["stack"] == "sm -> remote -> disk"
    text = format_tier_breakdown(result)
    assert "fastswap tiers: sm -> remote -> disk" in text
    assert "put_mean_s" in text


def test_contexts_are_per_run_not_global(spec):
    first = run_paging_workload("fastswap", spec, 0.5, seed=5)
    second = run_paging_workload("linux", spec, 0.5, seed=5)
    # Each run gets its own context: no cross-run accumulation.
    assert first.context is not second.context
    assert first.context.runs == 1
    assert second.context.runs == 1
    assert {row["backend"] for row in second.context.tier_rows()} == {"linux"}


def test_caller_supplied_context_accumulates(spec):
    context = RunContext()
    run_paging_workload("fastswap", spec, 0.5, seed=5, context=context)
    run_paging_workload("linux", spec, 0.5, seed=5, context=context)
    assert context.runs == 2
    backends = {row["backend"] for row in context.tier_rows()}
    assert backends == {"fastswap", "linux"}


def test_tier_registry_shim_is_gone():
    """The PR-2 deprecation shim promised one release of warnings; it
    has been removed, and the module must not quietly resurrect it."""
    import repro.experiments.runner as runner

    assert not hasattr(runner, "TIER_REGISTRY")
    assert not hasattr(runner, "TierRegistry")


def test_format_tier_breakdown_empty_for_plain_results():
    class Plain:
        backend = "x"
        tier_stats = []
        tier_stack = ""

    assert format_tier_breakdown(Plain()) == ""
