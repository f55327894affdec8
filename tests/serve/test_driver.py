"""The serving driver: pinned reports, priority, open-loop latency."""

import pytest

from repro.serve.driver import run_serving_workload
from repro.serve.qos import QOS_CLASSES, TenantClassSpec, default_mix
from repro.workloads.kv import KV_WORKLOADS

from tests.serve.conftest import serving_digest

WORKLOAD = KV_WORKLOADS["memcached"].with_overrides(keys=409, zipf_alpha=0.75)

#: Report digests of ``run(mix=small_mix(arrival))``, captured when the
#: flat-path and event-path drivers were checked equal on these runs.
GOLDEN = {
    "poisson":
        "d16096ed0973a2034b3c227c58e9d336bc749ee4c47ea891204206eed8bfb0b1",
    "bursty":
        "d4b9a38409b005c1d9591ab62e6ec7648af2911b49e7723311481744b15544df",
    "diurnal":
        "11b31cd82570978b1bee8d48a497939f938e5921c22badc3d52fef1fbcc2576e",
}
#: The same for the bursty infiniswap run under the chaos schedule.
GOLDEN_CHAOS = (
    "f3727cfdf5ace0da150c7c24db0191e608f0349e992f8cc0ef617283d7240650"
)


def small_mix(arrival_kind="poisson", per_tenant_rate=0.15, tenants=2000):
    return default_mix(
        tenants_per_class=tenants,
        arrival_kind=arrival_kind,
        workload=WORKLOAD,
        per_tenant_rate=per_tenant_rate,
    )


def run(backend="fastswap", fit=0.35, *, mix=None, schedule=None,
        duration=0.5, seed=0):
    return run_serving_workload(
        backend, mix or small_mix(), fit, duration=duration, seed=seed,
        fault_schedule=schedule,
    )


@pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
def test_report_matches_the_pinned_digest(arrival):
    assert serving_digest(run(mix=small_mix(arrival))) == GOLDEN[arrival]


def test_report_matches_the_pinned_digest_under_chaos():
    from repro.experiments.open_loop_serving import build_schedule

    result = run("infiniswap", mix=small_mix("bursty"),
                 schedule=build_schedule(0, True, 0.5))
    assert serving_digest(result) == GOLDEN_CHAOS


def test_runs_are_deterministic_per_seed():
    first = run().to_json()
    again = run().to_json()
    other = run(seed=1).to_json()
    assert first == again
    assert first != other


def test_queue_drains_fully_and_offered_is_counted():
    result = run()
    assert result.offered > 0
    assert result.completed == result.offered
    assert result.users == sum(spec.tenants for spec in small_mix())
    accounts = {doc["name"]: doc for doc in result.accounts}
    assert set(accounts) == {"gold", "silver", "bestEffort"}
    for doc in accounts.values():
        assert doc["completed"] == doc["offered"]


def test_priority_gives_gold_the_shorter_queue():
    """Overload the disk-backed system: gold, served first, must keep a
    far better envelope attainment (and shorter tail) than bestEffort."""
    result = run("linux", duration=1.0, mix=small_mix(tenants=4000))
    rows = {row["class"]: row for row in result.class_rows}
    gold, best = rows["gold"], rows["bestEffort"]
    assert best["attainment"] < 0.9  # the overload actually bit
    assert gold["envelope_attainment"] >= best["envelope_attainment"]
    assert gold["p99_s"] <= best["p99_s"]
    assert 0.0 < result.fairness <= 1.0
    assert result.goodput_rps < result.offered / result.duration


def test_latency_includes_queueing_delay():
    """A single-class overload shows open-loop accounting: completions
    keep their arrival timestamps, so latency grows with the backlog
    instead of the arrival rate throttling down."""
    mix = [
        TenantClassSpec(
            qos=QOS_CLASSES["gold"],
            tenants=4000,
            per_tenant_rate=0.5,
            workload=WORKLOAD,
        )
    ]
    relaxed = run(mix=[mix[0].with_overrides(tenants=40)], duration=0.5)
    slammed = run("linux", mix=mix, duration=0.5)
    fast_p99 = {r["class"]: r for r in relaxed.class_rows}["gold"]["p99_s"]
    slow = {r["class"]: r for r in slammed.class_rows}["gold"]
    assert slow["p99_s"] > 100 * fast_p99
    assert slow["violation_fraction"] > 0.0


def test_fit_fraction_validation():
    with pytest.raises(ValueError):
        run(fit=0.0)
    with pytest.raises(ValueError):
        run(fit=1.5)
    with pytest.raises(ValueError):
        run_serving_workload("fastswap", [], 0.5)


def test_result_json_round_trip():
    from repro.experiments.runner import RunResult

    result = run()
    doc = result.to_json()
    assert doc["kind"] == "serving"
    assert "context" not in doc
    restored = RunResult.from_json(doc)
    assert type(restored) is type(result)
    assert restored.to_json() == doc
