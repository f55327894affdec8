"""Benchmark: the open-loop QoS serving sweep."""

from benchmarks.conftest import SCALE
from repro.experiments import open_loop_serving


def test_bench_open_loop_serving(run_once, benchmark):
    result = run_once(open_loop_serving.run, scale=SCALE)
    rows = result["rows"]
    # Shape: gold's envelope goodput share dominates best-effort in
    # every cell, and squeezing the disk-backed system costs goodput.
    for row in rows:
        assert row["gold_envelope"] >= row["bestEffort_envelope"] - 1e-9
    collapsed = [
        row for row in rows
        if row["system"] == "linux" and row["fit"] == 0.35
    ]
    assert any(row["goodput_rps"] < row["offered"] for row in collapsed)
    simulated_requests = sum(row["offered"] for row in rows)
    simulated_users = max(row["users"] for row in rows)
    # ``stats`` is None under ``--benchmark-disable``: no wall to report.
    wall = benchmark.stats["mean"] if benchmark.stats else 0.0
    benchmark.extra_info["simulated_users_per_cell"] = simulated_users
    benchmark.extra_info["simulated_requests"] = simulated_requests
    benchmark.extra_info["simulated_requests_per_sec"] = (
        simulated_requests / wall if wall > 0 else 0.0
    )
    benchmark.extra_info["aggregate_goodput_rps"] = sum(
        row["goodput_rps"] for row in rows
    )


def test_bench_million_user_admission_cell(run_once, benchmark):
    """One full-scale shed cell: 1.05M users, batched arrivals,
    queue-depth shedding."""
    spec = next(
        s for s in open_loop_serving.cells(scale=1.0, seed=0)
        if s.options.get("policy") == "queue-depth"
        and s.options["qos_mix"] == "scan-heavy"
        and not s.options["chaos"]
    )
    payload = run_once(open_loop_serving.compute, spec)
    assert payload["users"] >= 1_000_000
    assert payload["shed"] > 0
    assert payload["completed"] + payload["shed"] == payload["offered"]
    # ``stats`` is None under ``--benchmark-disable``: no wall to report.
    wall = benchmark.stats["mean"] if benchmark.stats else 0.0
    benchmark.extra_info["simulated_users"] = payload["users"]
    benchmark.extra_info["users_per_sec"] = (
        payload["users"] / wall if wall > 0 else 0.0
    )
    benchmark.extra_info["shed_fraction"] = (
        payload["shed"] / payload["offered"]
    )
