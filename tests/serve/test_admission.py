"""Admission policies: unit semantics, driver integration, trace oracle."""

from types import SimpleNamespace

import pytest

from repro.serve.admission import (
    NoShed,
    QueueDepthShed,
    StaticCaps,
    UtilizationFeedback,
    make_admission_policy,
)
from repro.serve.driver import run_serving_workload
from repro.serve.qos import QOS_CLASSES, TenantClassSpec
from repro.trace import TraceAnalyzer
from repro.trace import runtime
from repro.workloads.kv import KV_WORKLOADS

from tests.serve.conftest import serving_digest


def _spec(name):
    """The slice of TenantClassSpec the policies actually look at."""
    return SimpleNamespace(qos=QOS_CLASSES[name])


# -- factory -----------------------------------------------------------------


def test_factory_maps_every_kind():
    assert isinstance(make_admission_policy("none"), NoShed)
    assert isinstance(
        make_admission_policy("static-caps", caps={}), StaticCaps
    )
    assert isinstance(
        make_admission_policy("queue-depth", limits={}), QueueDepthShed
    )
    assert isinstance(make_admission_policy("feedback"), UtilizationFeedback)
    with pytest.raises(ValueError):
        make_admission_policy("random-early-drop")


def test_parameter_validation():
    with pytest.raises(ValueError):
        StaticCaps({}, burst_s=0.0)
    with pytest.raises(ValueError):
        StaticCaps({"gold": -1.0}).reset([_spec("gold")])
    with pytest.raises(ValueError):
        QueueDepthShed({"bestEffort": 0})
    with pytest.raises(ValueError):
        UtilizationFeedback(high_s=0.01, low_s=0.01)
    with pytest.raises(ValueError):
        UtilizationFeedback(period_s=0.0)
    with pytest.raises(ValueError):
        UtilizationFeedback(max_level=-1)


def test_to_json_is_the_sweep_readable_form():
    assert NoShed().to_json() == {"policy": "none"}
    assert StaticCaps({"silver": 5.0, "bestEffort": 1.0}).to_json() == {
        "policy": "static-caps",
        "caps": {"bestEffort": 1.0, "silver": 5.0},
        "burst_s": 0.1,
    }
    assert QueueDepthShed({"bestEffort": 8}).to_json() == {
        "policy": "queue-depth",
        "limits": {"bestEffort": 8},
    }
    assert UtilizationFeedback().to_json() == {
        "policy": "feedback",
        "high_s": 0.04,
        "low_s": 0.01,
        "period_s": 0.02,
        "max_level": 2,
    }


# -- per-policy semantics ----------------------------------------------------


def test_no_shed_admits_everything():
    policy = NoShed()
    policy.reset([_spec("gold")])
    assert all(
        policy.admit(0, _spec("gold"), t, 99.0, 10_000) for t in range(5)
    )


def test_static_caps_is_a_token_bucket_over_arrival_time():
    policy = StaticCaps({"silver": 10.0}, burst_s=0.1)
    silver = _spec("silver")
    policy.reset([silver])
    # Bucket starts full: max(1, 10 * 0.1) = 1 token.
    assert policy.admit(0, silver, 0.0, 0.0, 0)
    # Same instant: no refill has happened, the bucket is dry.
    assert not policy.admit(0, silver, 0.0, 0.0, 0)
    # 50 ms later: refill 0.5 tokens — still short of a whole one.
    assert not policy.admit(0, silver, 0.05, 0.0, 0)
    # 100 ms after that the bucket is full again (capped at 1).
    assert policy.admit(0, silver, 0.15, 0.0, 0)


def test_static_caps_ignores_unmapped_classes_and_none_caps():
    policy = StaticCaps({"silver": 0.0, "bestEffort": None})
    mix = [_spec("gold"), _spec("silver"), _spec("bestEffort")]
    policy.reset(mix)
    assert policy.admit(0, mix[0], 0.0, 0.0, 0)  # unmapped: unlimited
    assert policy.admit(2, mix[2], 0.0, 0.0, 0)  # None cap: unlimited
    # A zero cap admits the initial token, then nothing ever again.
    assert policy.admit(1, mix[1], 0.0, 0.0, 0)
    assert not policy.admit(1, mix[1], 1000.0, 0.0, 0)


def test_queue_depth_is_drop_tail_on_the_class_queue():
    policy = QueueDepthShed({"bestEffort": 2, "silver": None})
    best = _spec("bestEffort")
    policy.reset([best])
    assert policy.admit(0, best, 0.0, 0.0, 0)
    assert policy.admit(0, best, 0.0, 0.0, 1)
    assert not policy.admit(0, best, 0.0, 0.0, 2)
    assert policy.admit(0, _spec("silver"), 0.0, 0.0, 10_000)
    assert policy.admit(0, _spec("gold"), 0.0, 0.0, 10_000)


def test_feedback_hysteresis_sheds_reverse_priority_never_gold():
    policy = UtilizationFeedback(high_s=0.02, low_s=0.005, period_s=0.01)
    mix = [_spec("gold"), _spec("silver"), _spec("bestEffort")]
    policy.reset(mix)
    # High lag at t=0: one step up -> level 1, bestEffort shed.
    assert not policy.admit(2, mix[2], 0.0, 0.5, 0)
    assert policy.level == 1
    # Within the same period the level holds (no second step)...
    assert policy.admit(1, mix[1], 0.005, 0.5, 0)
    assert policy.level == 1
    # ...the next period steps to level 2: silver shed too, gold never.
    assert not policy.admit(1, mix[1], 0.01, 0.5, 0)
    assert policy.level == 2
    assert policy.admit(0, mix[0], 0.011, 0.5, 0)
    # Recovery unwinds one level per period once lag falls below low_s.
    assert not policy.admit(2, mix[2], 0.02, 0.0, 0)
    assert policy.level == 1
    assert policy.admit(1, mix[1], 0.03, 0.0, 0)
    assert policy.level == 0


def test_feedback_reset_clears_controller_state():
    policy = UtilizationFeedback(period_s=0.01)
    mix = [_spec("gold"), _spec("bestEffort")]
    policy.reset(mix)
    policy.admit(1, mix[1], 0.0, 1.0, 0)
    assert policy.level == 1
    policy.reset(mix)
    assert policy.level == 0
    assert policy.admit(1, mix[1], 0.0, 0.0, 0)


# -- driver integration ------------------------------------------------------


def overload_mix():
    """A deliberately collapsing mix: tight gold, scanning bestEffort."""
    base = KV_WORKLOADS["memcached"]
    shapes = {
        "gold": (50.0, base.with_overrides(keys=64, zipf_alpha=1.05)),
        "silver": (100.0, base.with_overrides(keys=128, zipf_alpha=0.9)),
        "bestEffort": (400.0, base.with_overrides(keys=256,
                                                  zipf_alpha=0.05)),
    }
    return [
        TenantClassSpec(
            qos=QOS_CLASSES[name],
            tenants=300,
            per_tenant_rate=rate / 300,
            arrival_kind="bursty",
            workload=workload,
        )
        for name, (rate, workload) in shapes.items()
    ]


def policies():
    return {
        "static-caps": StaticCaps({"silver": 50.0, "bestEffort": 20.0}),
        "queue-depth": QueueDepthShed({"silver": 16, "bestEffort": 8}),
        "feedback": UtilizationFeedback(high_s=0.02, low_s=0.005,
                                        period_s=0.01),
    }


def run(admission, *, seed=0):
    return run_serving_workload(
        "linux", overload_mix(), 0.35, duration=1.5, seed=seed,
        prefetch_capacity=16, admission=admission,
    )


#: Report digests of ``run(policies()[name])``, captured when the
#: flat-path and event-path drivers were checked equal on these runs.
GOLDEN = {
    "feedback":
        "2310dcc7de993641d787737b6aa008e6ed088c9f19beee75d310954d38b4ff99",
    "queue-depth":
        "1fca99f0c0fc6f802c80ea35a6d2476290ce5bf77cbe0f565e2fff5c5107f487",
    "static-caps":
        "e8ecaf8419b2aedf873bd9fd7fafbf5e77acf9c5964c1a9053cd06537d350e8c",
}


@pytest.fixture(scope="module")
def shed_runs():
    return {name: run(policy) for name, policy in policies().items()}


def test_shed_plus_completed_is_offered(shed_runs):
    for name, result in shed_runs.items():
        assert result.shed > 0, name  # the policy actually bit
        assert result.completed + result.shed == result.offered
        assert result.admitted == result.offered - result.shed
        assert result.policy["policy"] == name
        for doc in result.accounts:
            assert doc["completed"] + doc["shed"] == doc["offered"]


def test_no_policy_in_the_sweep_sheds_gold(shed_runs):
    for name, result in shed_runs.items():
        accounts = {doc["name"]: doc for doc in result.accounts}
        assert accounts["gold"]["shed"] == 0, name
        assert accounts["bestEffort"]["shed"] > 0, name


def test_default_admission_is_no_shed():
    result = run(None)
    assert result.shed == 0
    assert result.admitted == result.offered == result.completed
    assert result.policy == {"policy": "none"}


@pytest.mark.parametrize("name", sorted(policies()))
def test_report_matches_the_pinned_digest_under_shedding(name):
    assert serving_digest(run(policies()[name])) == GOLDEN[name]


def test_shed_requests_acquire_no_service_spans():
    """The trace oracle: a traced shedding run books every request as
    exactly one of {served once, shed once} (analyzer invariant)."""
    with runtime.session() as active:
        result = run(QueueDepthShed({"silver": 16, "bestEffort": 8}))
    events = active.events_json()
    shed = [e for e in events if e["name"] == "admit.shed"]
    served = [e for e in events if e["name"] == "serve.request"]
    assert len(shed) == result.shed > 0
    assert len(served) == result.completed
    assert TraceAnalyzer(events).check() == []
