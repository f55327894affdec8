"""Unit tests for the tracer, null tracer and ambient sessions."""

import pytest

from repro.sim import Environment
from repro.trace import EVENT_NAMES, NULL_TRACER, Tracer
from repro.trace import runtime


def test_environment_gets_null_tracer_outside_sessions():
    env = Environment()
    assert env.tracer is NULL_TRACER
    assert env.tracer.enabled is False
    # Every null operation is an accepted no-op.
    assert env.tracer.begin("net.send") is None
    assert env.tracer.end(None) is None
    assert env.tracer.instant("tier.hit") is None
    assert env.tracer.latency("tier", "sm.put", 1e-6) is None


def test_environment_gets_live_tracer_inside_session():
    with runtime.session() as active:
        env = Environment()
        assert env.tracer.enabled is True
        assert env.tracer in active.tracers
    assert Environment().tracer is NULL_TRACER


def test_nested_sessions_are_rejected():
    with runtime.session():
        with pytest.raises(RuntimeError):
            runtime.start()
    with pytest.raises(RuntimeError):
        runtime.stop()


def test_span_wire_shape():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.begin("net.send", src="a", dst="b", nbytes=64)
    env.now = 2.5  # simulated time advances
    event = tracer.end(span, ok=True)
    assert event == {
        "name": "net.send",
        "ph": "X",
        "ts": 0.0,
        "dur": 2.5,
        "track": "main",
        "seq": 0,
        "args": {"src": "a", "dst": "b", "nbytes": 64, "ok": True},
    }
    assert tracer.events_json() == [event]


def test_span_at_records_explicit_times_on_a_named_track():
    env = Environment()
    tracer = Tracer(env, filter=("net",))
    event = tracer.span_at("net.send", 1.5, 4.0, "stripe:7:node2", ok=True)
    assert event == {
        "name": "net.send",
        "ph": "X",
        "ts": 1.5,
        "dur": 2.5,
        "track": "stripe:7:node2",
        "seq": 0,
        "args": {"ok": True},
    }
    assert env.now == 0.0  # the clock is not read or moved
    assert tracer.span_at("tier.put", 0.0, 1.0, "t") is None  # filtered
    assert tracer.events_json() == [event]


def test_instant_wire_shape_and_seq_monotonicity():
    env = Environment()
    tracer = Tracer(env)
    first = tracer.instant("fault.inject", kind="crash", node="n1")
    second = tracer.instant("fault.recover", kind="reboot", node="n1")
    assert first["ph"] == "i" and first["dur"] == 0.0
    assert [first["seq"], second["seq"]] == [0, 1]


def test_track_is_the_active_process_name():
    env = Environment()
    tracer = Tracer(env)
    seen = {}

    def proc():
        seen["event"] = tracer.instant("tier.hit", tier="sm", page=1)
        return
        yield

    env.run(until=env.process(proc(), name="worker:7"))
    assert seen["event"]["track"] == "worker:7"


def test_unknown_event_names_are_rejected():
    tracer = Tracer(Environment())
    with pytest.raises(ValueError):
        tracer.begin("page.invalid")
    with pytest.raises(ValueError):
        tracer.instant("made.up")


def test_filter_drops_events_but_keeps_histograms():
    tracer = Tracer(Environment(), filter=("net", "migrate"))
    assert tracer.begin("tier.hit", tier="sm") is None
    assert tracer.instant("fault.inject", kind="crash") is None
    span = tracer.begin("net.send", src="a", dst="b")
    assert span is not None
    tracer.end(span)
    tracer.latency("tier", "sm.put", 1e-6)  # unaffected by the filter
    assert [event["name"] for event in tracer.events_json()] == ["net.send"]
    assert tracer.histograms.get("tier", "sm.put").total == 1


def test_filter_rejects_unknown_names_too():
    tracer = Tracer(Environment(), filter=("net",))
    with pytest.raises(ValueError):
        tracer.instant("not.a.name")


def test_taxonomy_prefixes_are_the_documented_families():
    assert {name.split(".", 1)[0] for name in EVENT_NAMES} == {
        "page", "tier", "net", "fault", "migrate", "ec", "flatpath",
        "alloc", "serve", "admit",
    }


def test_session_merges_histograms_across_environments():
    with runtime.session() as active:
        first = Environment()
        second = Environment()
        first.tracer.latency("tier", "sm.put", 1e-6)
        second.tracer.latency("tier", "sm.put", 2e-6)
    merged = active.histograms()
    assert merged.get("tier", "sm.put").total == 2
