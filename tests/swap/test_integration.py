"""End-to-end paging runs: the Section V orderings must hold."""

import pytest

from repro.experiments.runner import run_kv_workload, run_paging_workload
from repro.swap.factory import BACKEND_NAMES, make_swap_backend
from repro.swap.fastswap import FastSwapConfig
from repro.workloads.kv import KV_WORKLOADS
from repro.workloads.ml import ML_WORKLOADS


SMALL = ML_WORKLOADS["logistic_regression"].with_overrides(pages=512, iterations=2)


def completion(backend, fit=0.5, **kwargs):
    return run_paging_workload(backend, SMALL, fit, seed=3, **kwargs).completion_time


def test_factory_knows_all_backends():
    from repro.core.cluster import DisaggregatedCluster
    from repro.experiments.runner import default_cluster_config

    # Seven nodes: ec-remote's 4+2 stripe needs six peers.
    cluster = DisaggregatedCluster.build(
        default_cluster_config(seed=11, num_nodes=7)
    )
    node = cluster.nodes()[0]
    for name in BACKEND_NAMES:
        backend = make_swap_backend(name, node, cluster)
        assert backend.name == name
    with pytest.raises(ValueError):
        make_swap_backend("teleport", node, cluster)


def test_fit_fraction_validation():
    with pytest.raises(ValueError):
        run_paging_workload("linux", SMALL, 0.0)
    with pytest.raises(ValueError):
        run_paging_workload("linux", SMALL, 1.5)


def test_completion_time_ordering():
    """The paper's headline: FastSwap < Infiniswap < Linux."""
    fastswap = completion("fastswap")
    infiniswap = completion("infiniswap")
    linux = completion("linux")
    assert fastswap < infiniswap < linux
    assert linux / fastswap > 10
    assert infiniswap / fastswap > 1.5


def test_nbdx_between_fastswap_and_infiniswap():
    nbdx = completion("nbdx")
    assert completion("fastswap") < nbdx <= completion("infiniswap")


def test_more_memory_helps_every_backend():
    for backend in ("fastswap", "infiniswap", "linux"):
        assert completion(backend, fit=0.75) <= completion(backend, fit=0.5)


def test_full_fit_means_no_majors():
    result = run_paging_workload("linux", SMALL, 1.0, seed=3)
    assert result.stats["major_faults"] == 0


def test_pbs_improves_fastswap():
    with_pbs = completion(
        "fastswap", fastswap_config=FastSwapConfig(sm_fraction=0.0, pbs=True)
    )
    without_pbs = completion(
        "fastswap", fastswap_config=FastSwapConfig(sm_fraction=0.0, pbs=False)
    )
    assert with_pbs < without_pbs


def test_distribution_ratio_monotonic():
    """FS-SM fastest, FS-RDMA slowest, mixes in between (Figure 8)."""
    times = [
        completion("fastswap", fastswap_config=FastSwapConfig(sm_fraction=f))
        for f in (1.0, 0.5, 0.0)
    ]
    assert times[0] <= times[1] <= times[2]


def test_deterministic_given_seed():
    a = run_paging_workload("fastswap", SMALL, 0.5, seed=5)
    b = run_paging_workload("fastswap", SMALL, 0.5, seed=5)
    assert a.completion_time == b.completion_time
    assert a.stats == b.stats


def test_kv_throughput_ordering():
    spec = KV_WORKLOADS["memcached"].with_overrides(keys=512)
    fast = run_kv_workload("fastswap", spec, 0.5, duration=0.5, seed=3)
    slow = run_kv_workload("infiniswap", spec, 0.5, duration=0.5, seed=3)
    assert fast.mean_throughput > slow.mean_throughput
    assert fast.operations > 0
    assert fast.timeline  # windows were recorded


def test_kv_cold_start_recovers():
    spec = KV_WORKLOADS["memcached"].with_overrides(keys=256)
    result = run_kv_workload(
        "fastswap", spec, 0.5, duration=1.0, window=0.1, seed=3, cold_start=True
    )
    rates = [rate for _t, rate in result.timeline]
    assert rates, "no windows recorded"
    # Later windows beat the first one: the hot set faulted back in.
    assert max(rates[len(rates) // 2:]) >= rates[0]
