"""Open-loop serving: QoS mix x arrival process x pressure x chaos.

The north-star serving scenario: a hundred-thousand-user tenant mix
(three QoS classes, aggregated per class — see
:mod:`repro.serve.arrivals`) offers load open-loop against each swap
system while memory pressure and, in the chaos cells, a seeded fault
schedule squeeze the backend.  The figure of merit is not raw
throughput but **goodput-under-SLO** per class: a system that serves
best-effort requests while gold requests rot in the queue scores
poorly even at identical completion counts.

A second cell family sweeps **admission control**: on the disk-backed
system under bursty arrivals, shed mixes whose best-effort scan class
overloads and pollutes the store are run under every admission policy
(:mod:`repro.serve.admission`) including the no-shed control.  The CI
gate there is shedding dominance: every policy beats no-shed on gold
goodput-under-SLO while the no-shed control demonstrably collapses —
at scale 1 with over a million simulated users per cell.

Expected shape: under pressure the systems separate as in the paging
experiments — the RDMA systems absorb the squeezed working set at
microsecond tails while the disk-backed system collapses into
sustained queueing (goodput well below offered load, best-effort
starving first).  In every cell gold's *envelope attainment* (the
share of its load completed within the loosest SLO in the mix — see
:meth:`repro.serve.accountant.ClassAccount.within`) is at least
best-effort's: that is the delay-dominance the priority scheduler
guarantees once burst envelopes are phase-aligned, and it is the CI
gate.  Per-class *SLO* attainment is deliberately not gated
cross-class — a 25 ms backlog violates gold's 20 ms SLO but not
best-effort's 200 ms one, so classes with SLOs of different widths
can rank either way without any scheduling fault.  Chaos (peer
crashes and link flaps) stretches the remote-only system's tails,
cannot touch the disk-only system, and often leaves FastSwap
byte-identical — its local shared-memory tier (the paper's tier-1)
absorbs the overflow before any remote slab is involved.
"""

import sys

from repro.experiments.engine import RunSpec, run_serial
from repro.metrics.reporting import format_table

EXPERIMENT = "open_loop_serving"

SYSTEMS = ("fastswap", "infiniswap", "linux")
ARRIVALS = ("poisson", "bursty", "diurnal")

#: Peer memory servers of the measured node in the default testbed.
PEER_NODES = ("node1", "node2", "node3")

#: (fit_fraction, chaos) pressure points: comfortable, squeezed, and
#: squeezed with faults underneath.
PRESSURES = ((0.7, False), (0.35, False), (0.35, True))

#: Tenants per QoS class at scale=1.0 (three classes -> 120k users).
TENANTS_PER_CLASS = 40_000

#: One tenant's request rate; offered load is aggregated per class
#: (40k tenants x 0.15 rps = 6000 requests/s per class at scale 1).
#: Chosen so the squeezed cells push the disk-backed system past its
#: service capacity (sustained queueing), while the RDMA systems keep
#: an order of magnitude of headroom.
PER_TENANT_RATE = 0.15

#: Expected random fault events over the horizon in chaos cells.
CHAOS_RATE = 4.0

# -- the admission-control (shed) sweep --------------------------------------
#
# A second family of cells crosses admission policy x QoS mix x
# pressure on the disk-backed system under *bursty* arrivals.  The
# mixes are built to collapse without admission control: a huge
# best-effort scan class (near-uniform over the full store) pollutes
# the resident set between bursts, so gold's tight hot set — which
# fits comfortably on its own — faults at disk speed exactly when its
# own burst lands.  Class rates are ABSOLUTE requests/s (not scaled):
# ``scale`` grows the tenant count and the key space, never the
# offered load, so the overload margin — and the shedding-dominance CI
# gate — is scale-invariant while the user count crosses a million at
# scale 1.

#: Admission policies the shed sweep crosses with QoS mixes; "none"
#: is the in-sweep control every shedding policy must beat.
SHED_POLICIES = ("none", "static-caps", "queue-depth", "feedback")

#: Aggregate offered rate per class, requests per simulated second.
SHED_MIXES = {
    "scan-heavy": {"gold": 150.0, "silver": 300.0, "bestEffort": 1200.0},
    "balanced": {"gold": 150.0, "silver": 750.0, "bestEffort": 900.0},
}

#: Tenants per class at scale=1.0: 1.05M simulated users.
SHED_TENANTS = {"gold": 150_000, "silver": 300_000, "bestEffort": 600_000}

#: Per-class key spaces — fixed, NOT scaled.  The shed story is a
#: fixed-size store shared by ever more users: ``scale`` multiplies
#: tenants (and divides the per-tenant rate), never the store.  A
#: scaled store would grow the resident capacity while the disk's
#: page-insert rate stayed fixed, quietly turning the pollution off at
#: large scale and making the dominance gate scale-dependent.
SHED_KEYS = {"gold": 64, "silver": 128, "bestEffort": 512}

#: Shed cells run squeezed, with and without chaos underneath.
SHED_PRESSURES = ((0.35, False), (0.35, True))

#: Disk-backed system + bursty arrivals: the pressure point where
#: admission control can actually win (bounded backlogs drain in the
#: burst OFF-windows, so shedding buys idle time and an unpolluted
#: resident set; under steady-state overload it could buy neither).
SHED_SYSTEM = "linux"
SHED_ARRIVAL = "bursty"

#: Shed cells run 3x longer than the baseline horizon: the no-shed
#: control's backlog compounds burst over burst, while the feedback
#: policy needs bursts *after* its first-burst reaction window to show
#: its steady state.  A 1s horizon would grade the controllers almost
#: entirely on the one burst no controller can prevent.
SHED_DURATION_X = 3.0

#: Swap-cache pages in the shed cells.  A serving front end keeps
#: readahead minimal for random-access KV traffic: with the default
#: generous buffer, disk readahead quietly refetches a polluted hot
#: set at one fault per neighborhood and hides the very collapse the
#: sweep measures.
SHED_PREFETCH_PAGES = 16


def cells(scale=1.0, seed=0, duration=1.0):
    """Baseline cells (system x arrival x pressure), then the shed
    sweep (QoS mix x pressure x admission policy)."""
    specs = [
        RunSpec.make(
            EXPERIMENT,
            backend=system,
            workload="memcached",
            fit=fit,
            seed=seed,
            scale=scale,
            arrival=arrival,
            chaos=chaos,
            duration=duration,
        )
        for system in SYSTEMS
        for arrival in ARRIVALS
        for fit, chaos in PRESSURES
    ]
    specs.extend(
        RunSpec.make(
            EXPERIMENT,
            backend=SHED_SYSTEM,
            workload="memcached",
            fit=fit,
            seed=seed,
            scale=scale,
            arrival=SHED_ARRIVAL,
            chaos=chaos,
            duration=SHED_DURATION_X * duration,
            policy=policy,
            qos_mix=mix_name,
        )
        for mix_name in sorted(SHED_MIXES)
        for fit, chaos in SHED_PRESSURES
        for policy in SHED_POLICIES
    )
    return specs


def build_schedule(seed, chaos, horizon):
    """The chaos schedule for one (seed, horizon) — system-independent.

    Drawn from a dedicated RNG stream before any cluster exists, so
    every system faces byte-identical faults (the
    :mod:`~repro.experiments.resilience_recovery` idiom).
    """
    from repro.faults.schedule import random_schedule
    from repro.sim.rng import RngStreams

    if not chaos:
        return None
    rng = RngStreams(seed).stream("serve-faults")
    return random_schedule(rng, PEER_NODES, horizon, CHAOS_RATE)


def _mix(spec):
    from repro.serve.qos import default_mix
    from repro.workloads.kv import KV_WORKLOADS

    # Flatter skew than the closed-loop ETC profile, so the touched
    # working set actually exceeds the squeezed resident capacity.
    # Keys and tenants both scale with ``spec.scale`` (matched floors),
    # which keeps the requests-per-key ratio — and therefore the
    # eviction pressure at a given fit — roughly scale-invariant.
    workload = KV_WORKLOADS[spec.workload].with_overrides(
        keys=max(256, int(4096 * spec.scale)), zipf_alpha=0.75
    )
    tenants = max(1200, int(TENANTS_PER_CLASS * spec.scale))
    return default_mix(
        tenants_per_class=tenants,
        arrival_kind=spec.options["arrival"],
        workload=workload,
        per_tenant_rate=PER_TENANT_RATE,
    )


def _shed_mix(spec):
    """The shed-sweep tenant mix: pollution by construction.

    Gold is a tight, skewed hot set that fits the squeezed capacity on
    its own; best-effort is a near-uniform scan over the full store at
    an aggregate rate far past the disk-backed service capacity.  All
    classes burst phase-aligned (the driver's modulation contract), so
    between bursts a *bounded* best-effort backlog drains and the
    server idles — that idle time, and the hot set it preserves, is
    what admission control buys.  Class rates and key spaces are
    absolute (see the sweep constants); only the tenant count scales.
    """
    from repro.serve.qos import QOS_CLASSES, TenantClassSpec
    from repro.workloads.kv import KV_WORKLOADS

    scale = spec.scale
    rates = SHED_MIXES[spec.options["qos_mix"]]
    base = KV_WORKLOADS[spec.workload]
    class_workloads = {
        "gold": base.with_overrides(
            keys=SHED_KEYS["gold"], zipf_alpha=1.05
        ),
        "silver": base.with_overrides(
            keys=SHED_KEYS["silver"], zipf_alpha=0.9
        ),
        "bestEffort": base.with_overrides(
            keys=SHED_KEYS["bestEffort"], zipf_alpha=0.05
        ),
    }
    mix = []
    for name in ("gold", "silver", "bestEffort"):
        tenants = max(1500, int(SHED_TENANTS[name] * scale))
        mix.append(TenantClassSpec(
            qos=QOS_CLASSES[name],
            tenants=tenants,
            per_tenant_rate=rates[name] / tenants,
            arrival_kind=SHED_ARRIVAL,
            workload=class_workloads[name],
        ))
    return mix


def _policy(name):
    """The sweep's concrete policy parameterizations.

    Caps and depth limits are stated against the shed mixes' absolute
    class rates and the disk-backed system's service capacity (a few
    hundred faulting requests per second when squeezed), so they are
    scale-invariant like the rates themselves.
    """
    from repro.serve.admission import make_admission_policy

    if name == "static-caps":
        return make_admission_policy(
            "static-caps", caps={"silver": 150.0, "bestEffort": 50.0}
        )
    if name == "queue-depth":
        return make_admission_policy(
            "queue-depth", limits={"silver": 64, "bestEffort": 16}
        )
    if name == "feedback":
        return make_admission_policy(
            "feedback", high_s=0.02, low_s=0.005, period_s=0.01
        )
    return make_admission_policy("none")


def compute(spec):
    from repro.serve.driver import run_serving_workload

    options = spec.options
    duration = options["duration"]
    schedule = build_schedule(spec.seed, options["chaos"], duration)
    policy_name = options.get("policy")
    if policy_name is None:
        mix = _mix(spec)
        admission = None
        prefetch = None
    else:
        mix = _shed_mix(spec)
        admission = _policy(policy_name)
        prefetch = SHED_PREFETCH_PAGES
    result = run_serving_workload(
        spec.backend,
        mix,
        spec.fit,
        duration=duration,
        seed=spec.seed,
        prefetch_capacity=prefetch,
        fault_schedule=schedule,
        admission=admission,
    )
    payload = result.to_json()
    payload["arrival"] = options["arrival"]
    payload["chaos"] = options["chaos"]
    payload["policy"] = policy_name or "none"
    payload["qos_mix"] = options.get("qos_mix", "default")
    return payload


def report(results):
    rows = []
    for spec, payload in results:
        row = {
            "system": payload["backend"],
            "arrival": payload["arrival"],
            "fit": payload["fit_fraction"],
            "chaos": payload["chaos"],
            "policy": payload.get("policy", "none"),
            "qos_mix": payload.get("qos_mix", "default"),
            "users": payload["users"],
            "offered": payload["offered"],
            "shed": payload.get("shed", 0),
            "completed": payload["completed"],
            "goodput_rps": payload["goodput_rps"],
            "fairness": payload["fairness"],
        }
        for class_row in payload["class_rows"]:
            prefix = class_row["class"]
            row[prefix + "_attainment"] = class_row["attainment"]
            row[prefix + "_envelope"] = class_row["envelope_attainment"]
            row[prefix + "_p99_s"] = class_row["p99_s"]
            row[prefix + "_goodput_rps"] = class_row["goodput_rps"]
            row[prefix + "_shed_fraction"] = class_row.get(
                "shed_fraction", 0.0
            )
        rows.append(row)
    return {"rows": rows}


def run(scale=1.0, seed=0, duration=1.0):
    """The full serving sweep, serially (tests and CLI)."""
    return run_serial(sys.modules[__name__], scale=scale, seed=seed,
                      duration=duration)


def render(result):
    return format_table(
        result["rows"],
        title="Open-loop serving - goodput under SLO, 3 QoS classes",
    )


def main():
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
