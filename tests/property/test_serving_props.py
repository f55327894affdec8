"""Property tests for the serving layer.

Three contracts under randomized inputs:

* arrival generation is a pure function of ``(process, seed)``;
* per-worker SLO accountants merged in any grouping equal serial
  recording (counts exactly, float sums to the ulp);
* the histogram ``cdf`` is consistent with both the raw samples and
  the interpolating ``percentile`` it inverts.
"""

import heapq
import math
import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.accountant import SloAccountant
from repro.serve.arrivals import make_arrival_process
from repro.serve.qos import QOS_CLASSES
from repro.trace import LatencyHistogram

ARRIVAL_SPECS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["poisson", "bursty", "diurnal"]),
        "rate": st.floats(min_value=1.0, max_value=500.0),
    }
)


@settings(max_examples=60, deadline=None)
@given(spec=ARRIVAL_SPECS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_arrivals_pure_function_of_spec_and_seed(spec, seed):
    process = make_arrival_process(spec["kind"], spec["rate"])
    first = process.arrival_times(random.Random(seed), 2.0)
    again = process.arrival_times(random.Random(seed), 2.0)
    assert first == again
    assert first == sorted(first)
    assert all(0.0 <= time < 2.0 for time in first)


@settings(max_examples=60, deadline=None)
@given(
    latencies=st.lists(
        st.tuples(
            st.sampled_from(["gold", "silver", "bestEffort"]),
            st.floats(min_value=1e-8, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=0,
        max_size=200,
    ),
    workers=st.integers(min_value=1, max_value=5),
)
def test_merged_worker_accountants_equal_serial(latencies, workers):
    serial = SloAccountant()
    shards = [SloAccountant() for _ in range(workers)]
    for index, (name, latency) in enumerate(latencies):
        for sink in (serial, shards[index % workers]):
            account = sink.account(QOS_CLASSES[name])
            account.record_offered()
            account.record_completion(latency)
    merged = SloAccountant()
    for shard in shards:
        merged.merge(shard)
    merged_docs = merged.to_json()
    serial_docs = serial.to_json()
    assert len(merged_docs) == len(serial_docs)
    for merged_doc, serial_doc in zip(merged_docs, serial_docs):
        assert math.isclose(
            merged_doc["histogram"].pop("sum"),
            serial_doc["histogram"].pop("sum"),
            rel_tol=1e-9, abs_tol=1e-12,
        )
        assert merged_doc == serial_doc
    assert merged.fairness() == serial.fairness()
    assert merged.rows(1.0) is not None


#: ``(arrival, seed, fit, digest)``: report digests of the fastswap run
#: below, captured when the flat-path and event-path drivers were
#: checked equal on each of these runs.
PINNED_RUNS = [
    ("poisson", 0, 0.3,
     "1497e0f182a432d5b21120e3e91b2daeb6fb8195307d0076bd527d0207cec2cc"),
    ("poisson", 417, 0.6,
     "05e4ef14f3ed2ac0878470eab576377f36ea18316d0cfebaa4d23c068b6c27f3"),
    ("poisson", 998, 1.0,
     "ca0b9317633fc49aabcc04b0b6bf7b6c41cea207c9e2179fa23105d99e75792c"),
    ("bursty", 1, 0.6,
     "ba600f9c0329205f5b5e2aee95e885958f855fc8330c3ac390f711aa72164ee1"),
    ("bursty", 256, 1.0,
     "863be96bc45a4b325a553add1cb2abf16c32e8b652b20569bb3a4dc0fd2fa215"),
    ("bursty", 733, 0.3,
     "63c00fa5d7d240c1026eced4824ee52133ec5cc49ea7511379d4eb0cb364b74e"),
    ("diurnal", 2, 1.0,
     "3bff25d4e225420cfca4b9372a9795472e05a978e10dce2ec04627e32962aff0"),
    ("diurnal", 89, 0.3,
     "a1b61bd38677e9da33511182c03d95b4983e0f7cd99354ad06ba67b779e26fc0"),
    ("diurnal", 542, 0.6,
     "3eb60153d393cf9c7a07e2bde9e1634c9ce462bf02be4e5e85af56110ca7be0b"),
]


def test_serving_reports_match_the_pinned_digests():
    """Every arrival process at every pressure, over spread seeds, gives
    the serving report it gave when both execution paths agreed."""
    from repro.serve.driver import run_serving_workload
    from repro.serve.qos import default_mix
    from repro.workloads.kv import KV_WORKLOADS

    from tests.serve.conftest import serving_digest

    workload = KV_WORKLOADS["memcached"].with_overrides(
        keys=128, zipf_alpha=0.75
    )
    for arrival, seed, fit, expected in PINNED_RUNS:
        mix = default_mix(
            tenants_per_class=500,
            arrival_kind=arrival,
            workload=workload,
            per_tenant_rate=0.4,
        )
        result = run_serving_workload(
            "fastswap", mix, fit, duration=0.3, seed=seed
        )
        assert serving_digest(result) == expected, (arrival, seed, fit)


@settings(max_examples=120, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-9, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    threshold=st.floats(min_value=1e-9, max_value=20.0),
)
def test_cdf_brackets_exact_empirical_fraction(samples, threshold):
    """The interpolated cdf never strays past the bucket resolution:
    it is bounded by the exact empirical fractions at the enclosing
    bucket bounds of the threshold."""
    histogram = LatencyHistogram(least=1e-9, buckets=48)
    for value in samples:
        histogram.record(value)
    index = histogram.bucket_index(threshold)
    upper = histogram.least * 2.0 ** index
    lower = 0.0 if index == 0 else upper / 2.0
    exact_below = sum(1 for v in samples if v <= lower) / len(samples)
    exact_above = sum(1 for v in samples if v <= upper) / len(samples)
    estimate = histogram.cdf(threshold)
    assert exact_below - 1e-12 <= estimate <= exact_above + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-9, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    ),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_cdf_inverts_percentile(samples, fraction):
    """Round trip: cdf(percentile(q)) == q under the shared
    uniform-within-bucket assumption (up to float error), whenever the
    quantile stays below the overflow clamp."""
    histogram = LatencyHistogram(least=1e-9, buckets=48)
    for value in samples:
        histogram.record(value)
    quantile = histogram.percentile(fraction)
    if quantile >= histogram.least * 2.0 ** (histogram.buckets - 2):
        return  # clamped into/at the overflow bound; not invertible
    assert math.isclose(histogram.cdf(quantile), fraction, abs_tol=1e-9)


ARRIVAL_KINDS = ["poisson", "bursty", "diurnal"]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ARRIVAL_KINDS),
    rate=st.floats(min_value=0.0, max_value=800.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shared_modulation=st.booleans(),
)
def test_batched_arrival_array_equals_streamed(kind, rate, seed,
                                               shared_modulation):
    """The flat-path contract: ``arrival_array`` is event-for-event
    identical to the streamed generator — same floats, same RNG
    consumption — for every process kind, including rate 0 and a
    separate modulation RNG."""
    process = make_arrival_process(kind, rate)
    modulations = [
        None if shared_modulation else random.Random(seed ^ 0x5EED)
        for _run in range(2)
    ]
    streamed_rng = random.Random(seed)
    batched_rng = random.Random(seed)
    streamed = process.arrival_times(streamed_rng, 1.5, modulations[0])
    batched = process.arrival_array(batched_rng, 1.5, modulations[1])
    assert batched == streamed  # exact float equality
    assert streamed_rng.getstate() == batched_rng.getstate()


class _GridArrivals:
    """``count`` arrivals on a four-point grid of the window: times tie
    within the class and across classes."""

    def __init__(self, count):
        self.count = count

    def arrival_array(self, rng, duration, modulation=None):
        return sorted(
            rng.randrange(4) * duration / 4 for _draw in range(self.count)
        )

    arrival_times = arrival_array


def _mix_entry(kind, rate):
    if kind == "grid":
        # Rate picks the count; 0 gives a class with no arrivals.
        return SimpleNamespace(arrival_process=_GridArrivals(int(rate) % 6))
    return make_arrival_process(kind, rate)


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(ARRIVAL_KINDS + ["grid"]),
                   min_size=0, max_size=4),
    rates=st.lists(st.floats(min_value=0.0, max_value=400.0),
                   min_size=4, max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# Ties within a class (three at 0.75) and across classes (0 and 1 at
# 0.5 and 0.75), and an empty grid class.
@example(kinds=["grid", "grid", "grid"], rates=[5.0, 4.0, 0.0, 0.0], seed=3)
# A zero-rate class, and one too slow to arrive within the window.
@example(kinds=["poisson", "bursty", "diurnal"], rates=[0.0, 50.0, 1e-9, 0.0],
         seed=1)
def test_aggregate_schedule_equals_merged_per_class_streams(kinds, rates,
                                                            seed):
    """The superposed schedule is exactly the per-class streamed
    processes merged ascending with ties broken by class index."""
    from repro.serve.arrivals import aggregate
    from repro.sim.rng import RngStreams, derive_seed

    mix = [_mix_entry(kind, rate) for kind, rate in zip(kinds, rates)]
    schedule = aggregate(mix, RngStreams(seed), 1.0)
    streams = []
    for index, entry in enumerate(mix):
        process = getattr(entry, "arrival_process", entry)
        modulation = random.Random(derive_seed(seed, "serve-modulation"))
        stream = RngStreams(seed).stream(
            "serve-arrivals{}".format(index)
        )
        streams.append([
            (time, index)
            for time in process.arrival_times(stream, 1.0, modulation)
        ])
    merged = list(heapq.merge(*streams))
    assert schedule.times == [time for time, _index in merged]
    assert schedule.classes == [index for _time, index in merged]
    assert schedule.per_class == tuple(len(stream) for stream in streams)


def _shed_cell(policy_name, seed, mix_name):
    """One calibrated shed-sweep cell at the tenant-count floor."""
    from repro.experiments import open_loop_serving as ols
    from repro.experiments.engine import RunSpec
    from repro.serve.driver import run_serving_workload

    spec = RunSpec.make(
        ols.EXPERIMENT, backend="linux", workload="memcached", fit=0.35,
        seed=seed, scale=0.01, arrival="bursty", chaos=False, duration=3.0,
        policy=policy_name, qos_mix=mix_name,
    )
    return run_serving_workload(
        "linux", ols._shed_mix(spec), 0.35, duration=3.0, seed=seed,
        prefetch_capacity=ols.SHED_PREFETCH_PAGES,
        admission=ols._policy(policy_name),
    )


@settings(max_examples=8, deadline=None)
@given(
    policy=st.sampled_from(["static-caps", "queue-depth", "feedback"]),
    seed=st.integers(min_value=0, max_value=15),
    mix_name=st.sampled_from(["scan-heavy", "balanced"]),
)
def test_shed_accounting_closes_and_gold_is_never_shed(policy, seed,
                                                       mix_name):
    """Conservation under any shedding: every offered request is billed
    exactly once (completed or shed), overall and per class — and no
    sweep policy ever sheds gold."""
    result = _shed_cell(policy, seed, mix_name)
    assert result.shed > 0
    assert result.completed + result.shed == result.offered
    assert result.admitted == result.offered - result.shed
    accounts = {doc["name"]: doc for doc in result.accounts}
    for doc in accounts.values():
        assert doc["completed"] + doc["shed"] == doc["offered"]
    assert accounts["gold"]["shed"] == 0


@settings(max_examples=8, deadline=None)
@given(
    policy=st.sampled_from(["static-caps", "queue-depth"]),
    seed=st.integers(min_value=0, max_value=15),
    mix_name=st.sampled_from(["scan-heavy", "balanced"]),
)
def test_bounding_policies_never_hurt_gold_under_overload(policy, seed,
                                                          mix_name):
    """Gold's SLO attainment never decreases when a *bounding* policy
    (rate cap or depth bound on the lower classes) replaces no-shed in
    a collapsing cell: gold is never refused, and less lower-class work
    can only shorten its waits.  The feedback controller is deliberately
    out of scope — a mistimed reaction can lose on an adversarial seed
    — and is gated instead on the experiment's pinned seeds."""
    def gold(result):
        rows = {row["class"]: row for row in result.class_rows}
        return rows["gold"]["attainment"]

    assert gold(_shed_cell(policy, seed, mix_name)) >= gold(
        _shed_cell("none", seed, mix_name)
    )
