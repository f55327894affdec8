"""Golden-trace determinism through the experiment engine.

The engine promise extended to traces: the same (spec, seed) sweep
yields byte-identical trace artifacts whether the cells ran serially
or fanned out across worker processes, and whatever the machine.
"""

import pytest

from repro.experiments import engine
from repro.trace import TraceAnalyzer, digest, to_chrome, validate_chrome

EXPERIMENT = "resilience_recovery"
SCALE = 0.05


@pytest.fixture(scope="module")
def serial_run():
    return engine.run_experiment(EXPERIMENT, scale=SCALE, seed=0, jobs=1,
                                 trace=True)


@pytest.fixture(scope="module")
def parallel_run():
    """The same traced sweep fanned out over two worker processes."""
    return engine.run_experiment(EXPERIMENT, scale=SCALE, seed=0, jobs=2,
                                 trace=True)


def test_serial_and_parallel_traces_are_identical(serial_run, parallel_run):
    parallel = parallel_run
    assert digest(serial_run.trace_events) == digest(parallel.trace_events)
    assert serial_run.trace_events == parallel.trace_events
    # And the payloads agree with the untraced engine path.
    assert serial_run.payloads == parallel.payloads


def _without_latency_stats(doc):
    """Traced payloads additionally carry latency rows; strip them so
    the *simulation outcome* can be compared against an untraced run."""
    if isinstance(doc, dict):
        return {
            key: _without_latency_stats(value)
            for key, value in doc.items()
            if key != "latency_stats"
        }
    if isinstance(doc, list):
        return [_without_latency_stats(item) for item in doc]
    return doc


def test_tracing_does_not_perturb_the_simulation(serial_run):
    untraced = engine.run_experiment(EXPERIMENT, scale=SCALE, seed=0, jobs=1)
    assert _without_latency_stats(untraced.payloads) == _without_latency_stats(
        serial_run.payloads
    )
    assert untraced.result == serial_run.result
    assert untraced.trace_events == []


def test_trace_events_are_tagged_by_cell(serial_run):
    cells = {event["cell"] for event in serial_run.trace_events}
    assert cells <= set(range(len(serial_run.specs)))
    # The faulted cells traced fault injections; the rate-0 cells none.
    faulted = {
        event["cell"] for event in serial_run.trace_events
        if event["name"] == "fault.inject"
    }
    rates = {
        index: spec.options["rate"]
        for index, spec in enumerate(serial_run.specs)
    }
    assert faulted == {index for index, rate in rates.items() if rate > 0}


def test_sweep_trace_passes_the_analyzer(serial_run):
    TraceAnalyzer(serial_run.trace_events).assert_ok()


def test_sweep_trace_exports_valid_chrome_document(serial_run):
    document = to_chrome(serial_run.trace_events, meta={"seed": 0})
    assert validate_chrome(document) == []
    # Round-tripping through the Chrome document preserves the verdict.
    TraceAnalyzer.from_chrome(document).assert_ok()


def test_trace_filter_restricts_the_taxonomy():
    run = engine.run_experiment(
        EXPERIMENT, scale=SCALE, seed=0, jobs=1, trace=True,
        trace_filter=("migrate", "fault"),
    )
    names = {event["name"] for event in run.trace_events}
    assert names
    assert all(
        name.startswith(("migrate.", "fault.")) for name in names
    )


def test_latency_rows_survive_the_worker_boundary(serial_run, parallel_run):
    assert serial_run.latency_rows, "traced cells must report latencies"
    for row in serial_run.latency_rows:
        assert {"backend", "workload", "fit", "category", "op",
                "count"} <= set(row)
    assert parallel_run.latency_rows == serial_run.latency_rows
