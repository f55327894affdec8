"""Open-loop multi-tenant serving: arrivals, QoS classes, SLO accounting.

This package turns the simulator into a production-style serving
testbed (the paper's serving discussion, scaled down): tenant classes
with arrival processes offer load open-loop, one front-end node under
memory pressure serves it through a swap backend, and an accountant
scores the outcome against per-class latency SLOs.

* :mod:`repro.serve.arrivals` — Poisson, bursty (MMPP) and diurnal
  arrival processes, with tenant aggregation (a hundred thousand
  tenants cost one stream) and batched schedule superposition
  (:func:`~repro.serve.arrivals.aggregate` →
  :class:`~repro.serve.arrivals.ArrivalSchedule`);
* :mod:`repro.serve.qos` — QoS classes (gold / silver / bestEffort)
  and :class:`~repro.serve.qos.TenantClassSpec`, the open-loop
  implementation of the unified WorkloadSpec protocol;
* :mod:`repro.serve.admission` — pluggable admission control: static
  per-class caps, queue-depth load shedding, utilization feedback;
* :mod:`repro.serve.accountant` — goodput-under-SLO, violation
  fractions, shed accounting, Jain fairness; mergeable across workers;
* :mod:`repro.serve.driver` — the priority-scheduled serving loop.

See ``docs/SERVING.md`` for the methodology.
"""

from repro.serve.accountant import ClassAccount, SloAccountant, jain_fairness
from repro.serve.admission import (
    AdmissionPolicy,
    NoShed,
    QueueDepthShed,
    StaticCaps,
    UtilizationFeedback,
    make_admission_policy,
)
from repro.serve.arrivals import (
    ArrivalProcess,
    ArrivalSchedule,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    aggregate,
    make_arrival_process,
)
from repro.serve.driver import ServingRunResult, run_serving_workload
from repro.serve.qos import QOS_CLASSES, QosClass, TenantClassSpec, default_mix

__all__ = [
    "AdmissionPolicy",
    "ArrivalProcess",
    "ArrivalSchedule",
    "BurstyArrivals",
    "ClassAccount",
    "DiurnalArrivals",
    "NoShed",
    "PoissonArrivals",
    "QOS_CLASSES",
    "QosClass",
    "QueueDepthShed",
    "ServingRunResult",
    "SloAccountant",
    "StaticCaps",
    "TenantClassSpec",
    "UtilizationFeedback",
    "aggregate",
    "default_mix",
    "jain_fairness",
    "make_arrival_process",
    "make_admission_policy",
    "run_serving_workload",
]
