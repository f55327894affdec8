"""Determinism and golden regression tests for resilience_recovery."""

import pytest

from repro.experiments import resilience_recovery as rr
from tests.experiments.conftest import GOLDEN_SCALE

SCALE = GOLDEN_SCALE


@pytest.fixture(scope="module")
def result(golden_payloads):
    """The sweep report, from the session's shared golden cells."""
    return rr.report(golden_payloads[rr.EXPERIMENT])


def rows_by_cell(result):
    return {
        (row["scheme"], row["rate"], row["replication"]): row
        for row in result["rows"]
    }


def replicated_cells(result):
    return {
        (rate, replication): row
        for (scheme, rate, replication), row in rows_by_cell(result).items()
        if scheme == "replicated"
    }


def test_schedule_is_scheme_independent():
    first = rr.build_schedule(seed=0, rate=2.0, horizon=0.5)
    again = rr.build_schedule(seed=0, rate=2.0, horizon=0.5)
    assert first.events == again.events
    assert rr.build_schedule(seed=0, rate=0.0, horizon=0.5) is None


def test_schedule_caps_concurrent_down():
    for seed in range(3):
        for rate in (2.0, 6.0):
            schedule = rr.build_schedule(seed=seed, rate=rate, horizon=0.5)
            assert schedule.max_concurrent_down() <= rr.MAX_CONCURRENT_DOWN
            assert len(schedule.lost_nodes()) == 1


def test_compute_is_deterministic():
    spec = next(
        spec for spec in rr.cells(scale=SCALE, seed=0)
        if spec.options["rate"] > 0 and spec.options["replication"] == 2
    )
    assert rr.compute(spec) == rr.compute(spec)


def test_sweep_covers_scheme_by_rate(result):
    cells = rows_by_cell(result)
    expected = {
        ("replicated", rate, replication)
        for rate in rr.RATES
        for replication in rr.REPLICATIONS
    }
    expected |= {("one-rtt", rate, max(rr.REPLICATIONS)) for rate in rr.RATES}
    expected |= {("erasure", rate, None) for rate in rr.RATES}
    assert set(cells) == expected


def test_redundant_schemes_lose_nothing(result):
    """Triple replication, one-RTT and 4+2 erasure coding all survive
    every schedule (capped at 2 concurrently down servers)."""
    for (scheme, rate, replication), row in rows_by_cell(result).items():
        if scheme in ("one-rtt", "erasure") or replication == 3:
            assert row["pages_lost"] == 0, (scheme, rate, replication)


def test_single_replication_loses_pages_under_server_loss(result):
    cells = replicated_cells(result)
    for rate in rr.RATES:
        if rate > 0:
            assert cells[(rate, 1)]["pages_lost"] > 0
            assert cells[(rate, 1)]["degraded_reads"] > 0


def test_healthy_baseline_is_unit_ratio(result):
    for (scheme, rate, _replication), row in rows_by_cell(result).items():
        if rate == 0.0:
            assert row["vs_healthy"] == pytest.approx(1.0), scheme
            assert row["faults"] == 0


def test_memory_overhead_ordering(result):
    """The trade-off headline: erasure coding buys the same zero-loss
    guarantee as triple replication at half the memory overhead."""
    cells = rows_by_cell(result)
    for rate in rr.RATES:
        ec = cells[("erasure", rate, None)]["overhead_x"]
        triple = cells[("replicated", rate, 3)]["overhead_x"]
        one_rtt = cells[("one-rtt", rate, 3)]["overhead_x"]
        assert ec == pytest.approx(
            (rr.EC_DATA_SHARDS + rr.EC_PARITY_SHARDS) / rr.EC_DATA_SHARDS
        )
        assert ec <= 1.6 < triple == one_rtt == 3.0


def test_one_rtt_pays_one_round_per_put(result):
    """``write-all`` costs ~r serialized rounds per committed put; the
    one-RTT protocol exactly one fan-out round."""
    cells = rows_by_cell(result)
    for rate in rr.RATES:
        swarm = cells[("one-rtt", rate, 3)]
        assert swarm["write_rounds"] == swarm["puts"]
        classic = cells[("replicated", rate, 3)]
        assert classic["write_rounds"] == 3 * classic["puts"]


def test_erasure_serves_degraded_reads_under_faults(result):
    cells = rows_by_cell(result)
    assert cells[("erasure", 0.0, None)]["degraded_reads"] == 0
    for rate in rr.RATES:
        if rate > 0:
            row = cells[("erasure", rate, None)]
            assert row["degraded_reads"] > 0
            assert row["re_replicated"] > 0
            assert row["repairs"] > 0


def test_golden_recovery_numbers_for_default_seed(result):
    """Pinned outputs for (seed=0, scale=0.05); any drift is a
    behaviour change in the fault/redundancy path and must be
    intentional."""
    cells = replicated_cells(result)
    assert cells[(2.0, 1)]["pages_lost"] == 150
    assert cells[(6.0, 1)]["pages_lost"] == 301
    assert cells[(2.0, 2)]["pages_lost"] == 0
    assert cells[(2.0, 2)]["re_replicated"] == 299
    assert cells[(2.0, 2)]["repairs"] == 1
    assert cells[(2.0, 2)]["repair_mean_s"] == pytest.approx(
        1.71332016601497e-3, rel=1e-6
    )
    assert cells[(6.0, 2)]["re_replicated"] == 709
    assert cells[(2.0, 1)]["faults"] == 3
    assert cells[(6.0, 1)]["faults"] == 10


def test_golden_redundancy_numbers_for_default_seed(result):
    """Pinned outputs for the new scheme cells at (seed=0, scale=0.05)."""
    cells = rows_by_cell(result)
    assert cells[("erasure", 2.0, None)]["degraded_reads"] == 26
    assert cells[("erasure", 2.0, None)]["re_replicated"] == 374
    assert cells[("erasure", 6.0, None)]["degraded_reads"] == 175
    assert cells[("erasure", 6.0, None)]["re_replicated"] == 786
    assert cells[("erasure", 6.0, None)]["repair_mean_s"] == pytest.approx(
        2.241456211753895e-3, rel=1e-6
    )
    assert cells[("one-rtt", 6.0, 3)]["write_rounds"] == 950
    assert cells[("one-rtt", 6.0, 3)]["re_replicated"] == 320


def test_op_tail_latency_reported_per_cell(result):
    """Every cell carries the op p99; a faulted erasure cell's tail is
    visibly stretched over its healthy baseline by degraded reads."""
    cells = rows_by_cell(result)
    for key, row in cells.items():
        assert row["op_p99_s"] > 0, key
    assert (
        cells[("erasure", 6.0, None)]["op_p99_s"]
        > cells[("erasure", 0.0, None)]["op_p99_s"]
    )


def _without_latency_stats(doc):
    if isinstance(doc, dict):
        return {
            key: _without_latency_stats(value)
            for key, value in doc.items()
            if key != "latency_stats"
        }
    if isinstance(doc, list):
        return [_without_latency_stats(item) for item in doc]
    return doc


@pytest.mark.parametrize("scheme,rate,replication", [
    ("replicated", 6.0, 2),
    ("one-rtt", 6.0, 3),
    ("erasure", 6.0, None),
])
def test_traced_faulted_cell_upholds_trace_invariants(scheme, rate,
                                                      replication):
    """The golden numbers above are *indirect* evidence the fault path
    behaves; the trace is direct.  Replay the faultiest cell of every
    scheme under tracing and let the invariant oracle check span
    nesting, crash epochs, migration pairing, retry accounting and
    reconstruction — then check tracing did not perturb the simulation
    itself."""
    from repro.trace import TraceAnalyzer, runtime

    spec = next(
        spec for spec in rr.cells(scale=SCALE, seed=0)
        if spec.options["scheme"] == scheme
        and spec.options["rate"] == rate
        and spec.options["replication"] == replication
    )
    with runtime.session() as active:
        traced = rr.compute(spec)
    events = active.events_json()
    assert any(event["name"] == "fault.inject" for event in events)
    assert any(event["name"] == "net.send" for event in events)
    if scheme == "one-rtt":
        fanouts = [
            event for event in events
            if event["name"] == "net.send" and event["args"].get("fanout")
        ]
        assert fanouts, "one-RTT puts must ride single fan-out rounds"
    if scheme == "erasure":
        assert any(event["name"] == "ec.encode" for event in events)
        assert any(event["name"] == "ec.reconstruct" for event in events)
    TraceAnalyzer(events).assert_ok()
    untraced = rr.compute(spec)
    assert _without_latency_stats(traced) == _without_latency_stats(untraced)
