"""The open-loop multi-tenant serving driver.

One simulated front-end node serves the aggregate request streams of
several tenant classes (:class:`~repro.serve.qos.TenantClassSpec`)
against one swap backend under memory pressure.  Requests arrive
open-loop — the arrival processes do not wait for the server — so
queueing delay is real: a slow backend does not slow the offered load
down, it grows the queue, and latency (completion minus arrival)
shows it.  The :class:`~repro.serve.accountant.SloAccountant` turns
completions into goodput-under-SLO, violation fractions and fairness.

Scheduling: non-preemptive priority.  When the server frees up, the
highest-priority class with an admitted request waiting is served next
(FIFO within a class, class index breaks priority ties).  A request in
service always runs to completion.

Admission control sits at the arrival drain: the moment the server
first observes a request (its arrival time passes the clock), the
configured :class:`~repro.serve.admission.AdmissionPolicy` either
enqueues it or sheds it.  A shed request never touches the backend —
it acquires no service spans — and is billed to the accountant's
``shed`` counter, separate from SLO violations.  The default
:class:`~repro.serve.admission.NoShed` policy reproduces the
pre-admission driver exactly.

Execution
---------

The whole schedule is pre-materialized in bulk: class arrival arrays
are generated and superposed by :func:`repro.serve.arrivals.aggregate`
(one merged, admission-ordered timeline — no per-request heap pushes),
and each class's operations are flattened into one
:class:`~repro.workloads.batch.AccessBatch` plus per-request bounds
(:func:`~repro.workloads.batch.flatten_requests`), so a million-user
schedule costs no per-request array allocation.  Arrivals and
operations draw from *separate* named RNG streams.

A request runs its ``(start, stop)`` slice of the class batch on the
event path: :meth:`~repro.swap.base.VirtualMemory.touch` serves a
resident hit as a plain call and only a miss enters the
:meth:`~repro.swap.base.VirtualMemory.access` generator.  Its
completion is stamped after :meth:`~repro.swap.base.VirtualMemory.
settle` charges the accumulated cheap-path time (completion latency
must include it); settle falls back to a timeout only when the clock
cannot move in place.  Idle waits until the next arrival and that
request-end charge move the clock through
:meth:`~repro.sim.engine.Environment.advance` instead of a timeout
whenever that timeout would pop *strictly before* everything already
on the event heap, within the run's horizon — a strict winner fires
with nothing able to observe the wait, so adding to the clock is the
identical float computation.

Everything else — chaos windows, backend retries, fault-driver events
on the heap — runs on the ordinary event engine, so serving composes
with :mod:`repro.faults` unchanged.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.experiments.runner import (
    RunContext,
    RunResult,
    _build,
    _collect_backend_stats,
    _collect_latency_stats,
    _collect_tier_stats,
    _install_faults,
    _resolve_context,
    register_result_kind,
)
from repro.experiments.runner import default_cluster_config
from repro.mem.page import make_pages
from repro.serve.accountant import SloAccountant
from repro.serve.admission import NoShed
from repro.serve.arrivals import aggregate
from repro.swap.base import VirtualMemory
from repro.workloads.batch import flatten_requests

__all__ = ["ServingRunResult", "run_serving_workload"]


@register_result_kind
@dataclass
class ServingRunResult(RunResult):
    """Outcome of one open-loop serving run."""

    backend: str
    workload: str
    fit_fraction: float
    duration: float
    #: Simulated users: the sum of all classes' tenant counts.
    users: int
    offered: int
    completed: int
    #: Aggregate requests/s that met their class SLO.
    goodput_rps: float
    #: Jain fairness over per-class SLO attainment.
    fairness: float
    #: Requests refused by admission control (never served).
    shed: int = 0
    #: Offered load that passed admission (``offered - shed``).
    admitted: int = 0
    #: The admission policy's JSON form (``{"policy": "none"}`` etc.).
    policy: dict = field(default_factory=dict)
    #: Per-class accounting rows (goodput, violations, percentiles).
    class_rows: list = field(default_factory=list)
    #: The accountant's JSON form (mergeable across runs).
    accounts: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    backend_stats: dict = field(default_factory=dict)
    tier_stats: list = field(default_factory=list)
    tier_stack: str = ""
    latency_stats: list = field(default_factory=list)
    #: The RunContext this run recorded into (not serialized).
    context: RunContext = field(default=None, repr=False, compare=False)

    kind = "serving"

    def row(self):
        return {
            "backend": self.backend,
            "workload": self.workload,
            "fit": self.fit_fraction,
            "users": self.users,
            "offered": self.offered,
            "goodput_rps": self.goodput_rps,
            "fairness": self.fairness,
        }


def run_serving_workload(backend_name, mix, fit_fraction, *, duration=2.0,
                         seed=0, cluster_config=None, fastswap_config=None,
                         slabs_per_target=24, prefetch_capacity=None,
                         fault_schedule=None, admission=None, context=None):
    """Serve ``mix`` (a list of TenantClassSpecs) open-loop.

    All classes contend for one store: the page space is the largest
    class workload's, the resident capacity is ``fit_fraction`` of it.
    Arrivals are generated for ``[0, duration)`` and the admitted queue
    drains fully, so ``offered == completed + shed`` at the end;
    requests arriving late in a collapsed system simply complete (and
    miss their SLO) late.  ``admission`` is an
    :class:`~repro.serve.admission.AdmissionPolicy` (default: admit
    everything).
    """
    if not 0.0 < fit_fraction <= 1.0:
        raise ValueError("fit_fraction must be in (0, 1]")
    if not mix:
        raise ValueError("mix must name at least one tenant class")
    if admission is None:
        admission = NoShed()
    context = _resolve_context(context)
    cluster_config = cluster_config or default_cluster_config(seed=seed)
    cluster, node, backend = _build(
        backend_name, cluster_config, fastswap_config, slabs_per_target
    )
    _install_faults(cluster, fault_schedule)
    rng = cluster.rng
    store = max((spec.workload for spec in mix), key=lambda w: w.pages)
    pages = make_pages(
        store.pages,
        owner=backend_name,
        compressibility_sampler=store.compressibility.sampler(
            rng.stream("pages")
        ),
    )
    capacity = max(1, int(store.pages * fit_fraction))
    if prefetch_capacity is None:
        prefetch_capacity = max(128, capacity // 4)
    mmu = VirtualMemory(
        cluster.env,
        pages,
        capacity,
        backend,
        cpu=cluster_config.calibration.cpu,
        compute_per_access=store.compute_per_op,
        prefetch_capacity=prefetch_capacity,
    )
    if hasattr(backend, "bind_page_table"):
        backend.bind_page_table(mmu.pages, mmu.stats)

    # The batched schedule: one merged arrival timeline across classes
    # (admission order), one flattened access batch per class.
    schedule = aggregate(mix, rng, duration)
    batches = []
    all_bounds = []
    for index, spec in enumerate(mix):
        operations = spec.ops_batch(
            rng.stream("serve-ops{}".format(index)),
            schedule.per_class[index],
        )
        batch, bounds = flatten_requests(operations)
        batches.append(batch)
        all_bounds.append(bounds)

    accountant = SloAccountant()
    accounts = []
    for index, spec in enumerate(mix):
        account = accountant.account(spec.qos)
        account.record_offered(schedule.per_class[index])
        accounts.append(account)
    # Service order among ready classes: priority, then class index.
    order = sorted(range(len(mix)), key=lambda i: (mix[i].qos.priority, i))
    admission.reset(mix)
    env = cluster.env

    def server():
        yield from backend.setup()
        mmu.stats.start_time = env.now
        # Arrival timestamps are relative to service start: offered
        # load begins when the backend is up, so setup cost (slab
        # reservation etc.) is not billed to the first requests.
        epoch = env.now
        times = schedule.times
        classes = schedule.classes
        total = len(times)
        pos = 0
        #: Per-class FIFO of admitted ``(ordinal, arrival)`` pairs.
        queues = [deque() for _spec in mix]
        #: Next request ordinal per class (indexes the bounds arrays).
        ordinals = [0] * len(mix)
        tracer = env.tracer
        while True:
            # Admission drain: offer the policy every request whose
            # arrival time the clock has passed, in merged order.
            while pos < total:
                offset_arrival = times[pos]
                arrival = epoch + offset_arrival
                if arrival > env.now:
                    break
                index = classes[pos]
                spec = mix[index]
                queue = queues[index]
                ordinal = ordinals[index]
                ordinals[index] = ordinal + 1
                pos += 1
                # The policy's congestion signal: how long the oldest
                # admitted request has been waiting (scheduling lag).
                oldest = None
                for pending in queues:
                    if pending and (oldest is None
                                    or pending[0][1] < oldest):
                        oldest = pending[0][1]
                lag = 0.0 if oldest is None else env.now - oldest
                if admission.admit(index, spec, offset_arrival,
                                   lag, len(queue)):
                    queue.append((ordinal, arrival))
                else:
                    accounts[index].record_shed()
                    if tracer.enabled:
                        tracer.instant(
                            "admit.shed",
                            qos=spec.qos.name,
                            tenant_class=index,
                            request=ordinal,
                        )
            ready = -1
            for index in order:
                if queues[index]:
                    ready = index
                    break
            if ready < 0:
                if pos >= total:
                    break  # every arrival drained and served
                delay = (epoch + times[pos]) - env.now
                if not env.advance(delay):
                    yield env.timeout(delay)
                continue
            ordinal, arrival = queues[ready].popleft()
            spec = mix[ready]
            bounds = all_bounds[ready]
            start, stop = bounds[ordinal], bounds[ordinal + 1]
            span = (
                tracer.begin("serve.request", qos=spec.qos.name,
                             tenant_class=ready, request=ordinal)
                if tracer.enabled else None
            )
            addresses = batches[ready].addresses
            writes = batches[ready].writes
            for offset in range(start, stop):
                if not mmu.touch(addresses[offset], writes[offset]):
                    yield from mmu.access(addresses[offset], writes[offset])
            # Charge the accumulated cheap-path time now: completion
            # latency must include it.  When settle returns False only
            # because the backend holds buffered writes, the pending
            # time is already charged and the flush below is a no-op.
            if not mmu.settle():
                yield from mmu._flush_pending()
            if span is not None:
                tracer.end(span, accesses=stop - start)
            accounts[ready].record_completion(env.now - arrival)
        yield from mmu.flush()
        mmu.stats.end_time = env.now

    cluster.run_process(server(), name="serve:{}".format(backend_name))
    tier_stats, tier_stack = _collect_tier_stats(backend)
    users = sum(spec.tenants for spec in mix)
    offered = len(schedule)
    completed = sum(
        account.completed for _name, account in accountant
    )
    shed = sum(account.shed for _name, account in accountant)
    workload_name = "+".join(
        sorted({spec.workload.name for spec in mix})
    )
    result = ServingRunResult(
        backend=backend_name,
        workload=workload_name,
        fit_fraction=fit_fraction,
        duration=duration,
        users=users,
        offered=offered,
        completed=completed,
        goodput_rps=accountant.goodput(duration),
        fairness=accountant.fairness(),
        shed=shed,
        admitted=offered - shed,
        policy=admission.to_json(),
        class_rows=accountant.rows(duration),
        accounts=accountant.to_json(),
        stats=mmu.stats.snapshot(),
        backend_stats=_collect_backend_stats(backend),
        tier_stats=tier_stats,
        tier_stack=tier_stack,
        latency_stats=_collect_latency_stats(cluster),
        context=context,
    )
    context.record(result)
    return result
