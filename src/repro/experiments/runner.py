"""Shared machinery to run paging / KV workloads against a backend.

These runners build a fresh cluster per run (so runs are independent
and reproducible from the seed), wire a virtual-memory instance to the
requested swap backend, drive the workload trace, and report stats.

Every run collects its cross-cutting artifacts (today: the per-tier
cascade breakdown) into a :class:`RunContext` carried on the returned
result.  Runs are therefore parallel-safe by construction: nothing a
run records is shared between two simulator invocations, so the
experiment engine can fan cells out across worker processes and merge
the contexts afterwards.
"""

from dataclasses import dataclass, field, fields

from repro.core.cluster import DisaggregatedCluster
from repro.core.config import ClusterConfig
from repro.hw.latency import MiB
from repro.mem.page import make_pages
from repro.swap.base import VirtualMemory
from repro.swap.factory import make_swap_backend


def default_cluster_config(seed=0, **overrides):
    """The scaled-down testbed every swap experiment runs on.

    Mirrors the paper's setup proportionally: a handful of nodes, one
    measured virtual server, generous receive pools so remote capacity
    is not the bottleneck unless an experiment wants it to be.
    """
    base = dict(
        num_nodes=4,
        servers_per_node=1,
        server_memory_bytes=64 * MiB,
        donation_fraction=0.3,
        receive_pool_slabs=48,
        send_pool_slabs=8,
        replication_factor=1,
        seed=seed,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class RunContext:
    """Per-run collector for cross-cutting run artifacts.

    A fresh context is created for every runner invocation (or passed
    in by the caller to aggregate several runs); the result carries it
    as ``result.context``.  Unlike the old process-wide registry, a
    context is owned by exactly one caller, so concurrent runs in one
    process — or cells fanned out across worker processes — can never
    interleave their rows.
    """

    def __init__(self):
        self.runs = 0
        #: Runs that drove the two-speed (flat-path) engine.
        self.fast_path_runs = 0
        self._tier_rows = []
        self._latency_rows = []

    def record(self, result):
        """Record a finished runner result (tier rows + run count)."""
        self.runs += 1
        if getattr(result, "fast_path", False):
            self.fast_path_runs += 1
        self.record_tier_rows(
            result.backend,
            result.workload,
            result.fit_fraction,
            result.tier_stack,
            result.tier_stats,
        )
        self.record_latency_rows(
            result.backend,
            result.workload,
            result.fit_fraction,
            getattr(result, "latency_stats", None) or [],
        )

    def record_tier_rows(self, backend_name, workload, fit_fraction,
                         tier_stack, tier_stats):
        for tier_row in tier_stats:
            row = {
                "backend": backend_name,
                "workload": workload,
                "fit": fit_fraction,
                "stack": tier_stack,
            }
            row.update(tier_row)
            self._tier_rows.append(row)

    def record_latency_rows(self, backend_name, workload, fit_fraction,
                            latency_stats):
        """Per-(category, op) latency histogram rows from a traced run."""
        for latency_row in latency_stats:
            row = {
                "backend": backend_name,
                "workload": workload,
                "fit": fit_fraction,
            }
            row.update(latency_row)
            self._latency_rows.append(row)

    def tier_rows(self):
        return list(self._tier_rows)

    def latency_rows(self):
        return list(self._latency_rows)

    def merge(self, other):
        """Fold another context's rows into this one (cells -> sweep)."""
        self.runs += other.runs
        self.fast_path_runs += other.fast_path_runs
        self._tier_rows.extend(other.tier_rows())
        self._latency_rows.extend(other.latency_rows())

    def clear(self):
        self.runs = 0
        self.fast_path_runs = 0
        self._tier_rows.clear()
        self._latency_rows.clear()


def _jsonify(value):
    """Mirror the JSON wire shape (tuples -> lists, keys -> str)."""
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


class RunResult:
    """Shared surface of every runner outcome.

    Subclasses are dataclasses; this base gives them a uniform
    ``to_json()`` (plain-JSON payload with a ``kind`` discriminator,
    consumed by the experiment engine's cache and the CLI's ``--json``
    output) and ``from_json()``/``row()`` round-trip helpers.
    """

    kind = ""
    #: Fields excluded from the JSON payload: ``context`` is not
    #: serializable, and ``fast_path`` is an execution-strategy tag —
    #: the whole point of the two-speed engine is that fast and slow
    #: runs serialize byte-identically.
    _json_exclude = ("context", "fast_path")

    def to_json(self):
        payload = {"kind": self.kind}
        for spec in fields(self):
            if spec.name in self._json_exclude:
                continue
            payload[spec.name] = _jsonify(getattr(self, spec.name))
        return payload

    @staticmethod
    def from_json(payload):
        """Rebuild the right result subclass from a ``to_json`` payload."""
        payload = dict(payload)
        kind = payload.pop("kind", None)
        try:
            cls = _RESULT_KINDS[kind]
        except KeyError:
            raise ValueError(
                "unknown result kind {!r}; expected one of {}".format(
                    kind, sorted(_RESULT_KINDS)
                )
            ) from None
        return cls(**payload)

    def row(self):
        """One flat report-table row; subclasses pick the columns."""
        raise NotImplementedError


@dataclass
class PagingRunResult(RunResult):
    """Outcome of one completion-time run."""

    backend: str
    workload: str
    fit_fraction: float
    completion_time: float
    stats: dict = field(default_factory=dict)
    backend_stats: dict = field(default_factory=dict)
    #: Per-tier rows from the cascade's metrics registry (top tier first).
    tier_stats: list = field(default_factory=list)
    #: Human-readable tier stack, e.g. ``sm -> remote -> disk``.
    tier_stack: str = ""
    #: Per-(category, op) latency histogram rows (traced runs only).
    latency_stats: list = field(default_factory=list)
    #: The RunContext this run recorded into (not serialized).
    context: RunContext = field(default=None, repr=False, compare=False)
    #: Whether the run drove the flat-path kernel (not serialized).
    fast_path: bool = field(default=False, compare=False)

    kind = "paging"

    def row(self):
        return {
            "backend": self.backend,
            "workload": self.workload,
            "fit": self.fit_fraction,
            "completion_s": self.completion_time,
            "major_faults": self.stats.get("major_faults"),
        }


@dataclass
class KvRunResult(RunResult):
    """Outcome of one throughput run."""

    backend: str
    workload: str
    fit_fraction: float
    mean_throughput: float
    timeline: list = field(default_factory=list)  # (window_end_s, ops_per_s)
    operations: int = 0
    #: Per-tier rows from the cascade's metrics registry (top tier first).
    tier_stats: list = field(default_factory=list)
    #: Human-readable tier stack, e.g. ``sm -> remote -> disk``.
    tier_stack: str = ""
    #: Per-(category, op) latency histogram rows (traced runs only).
    latency_stats: list = field(default_factory=list)
    #: Per-operation latency percentiles (``record_op_latency`` runs
    #: only): p50/p99/p999 seconds over every completed KV op.
    op_latency: dict = field(default_factory=dict)
    #: The RunContext this run recorded into (not serialized).
    context: RunContext = field(default=None, repr=False, compare=False)
    #: Whether the run drove the flat-path kernel (not serialized).
    fast_path: bool = field(default=False, compare=False)

    kind = "kv"

    def row(self):
        return {
            "backend": self.backend,
            "workload": self.workload,
            "fit": self.fit_fraction,
            "mean_ops_s": self.mean_throughput,
            "operations": self.operations,
        }


_RESULT_KINDS = {
    PagingRunResult.kind: PagingRunResult,
    KvRunResult.kind: KvRunResult,
}


def register_result_kind(cls):
    """Register a :class:`RunResult` subclass for ``from_json`` dispatch.

    Packages that define their own result kinds (e.g. :mod:`repro.serve`)
    call this at import time instead of being imported here, which keeps
    the runner free of upward dependencies.  Usable as a decorator.
    """
    if not cls.kind:
        raise ValueError("result class must set a non-empty kind")
    existing = _RESULT_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ValueError("result kind {!r} already registered".format(cls.kind))
    _RESULT_KINDS[cls.kind] = cls
    return cls


def _build(backend_name, cluster_config, fastswap_config, slabs_per_target):
    cluster = DisaggregatedCluster.build(cluster_config)
    node = cluster.nodes()[0]
    backend = make_swap_backend(
        backend_name,
        node,
        cluster,
        rng=cluster.rng.stream("backend"),
        fastswap_config=fastswap_config,
        slabs_per_target=slabs_per_target,
    )
    return cluster, node, backend


def _collect_backend_stats(backend):
    interesting = (
        "reads", "writes", "remote_reads", "remote_writes", "sm_puts",
        "sm_gets", "remote_batches", "remote_pages_out", "pbs_pages",
        "disk_writes", "disk_reads", "ssd_writes", "ssd_reads",
        "pool_hits", "pool_misses", "disk_fallback_reads",
        "disk_fallback_writes",
    )
    return {
        name: getattr(backend, name)
        for name in interesting
        if hasattr(backend, name)
    }


def _collect_tier_stats(backend):
    """Per-tier breakdown rows and stack description, if a cascade."""
    if not hasattr(backend, "tier_breakdown"):
        return [], ""
    return backend.tier_breakdown(), backend.describe_stack()


def _resolve_context(context):
    """The context this run records into (a fresh one when not given)."""
    return context if context is not None else RunContext()


def _collect_latency_stats(cluster):
    """The run environment's latency histogram rows (traced runs only)."""
    tracer = cluster.env.tracer
    return tracer.histogram_rows() if tracer.enabled else []


def _install_faults(cluster, fault_schedule):
    """Install a fault schedule into the built cluster, if one is given."""
    if fault_schedule is None:
        return None
    from repro.faults.driver import FaultDriver

    driver = FaultDriver(cluster, fault_schedule)
    driver.install()
    return driver


def _fallback_windows(fault_schedule):
    """Blackout windows the flat-path kernel must route around."""
    if fault_schedule is None:
        return ()
    return fault_schedule.blackout_windows()


def run_paging_workload(backend_name, spec, fit_fraction, *, seed=0,
                        cluster_config=None, fastswap_config=None,
                        slabs_per_target=24, prefetch_capacity=128,
                        record_fault_latency=False, fault_schedule=None,
                        context=None, fast_path=False):
    """Run an ML trace to completion under paging; returns the result.

    ``fit_fraction`` is the paper's "N% configuration": what share of
    the working set fits in the virtual server's resident memory.  All
    tuning arguments are keyword-only; ``fault_schedule`` (a
    :class:`~repro.faults.schedule.FaultSchedule`) injects failures as
    timed events while the workload runs; ``context`` aggregates
    several runs into one :class:`RunContext` (one is created per run
    when omitted).  ``fast_path=True`` pre-materializes the reference
    string and drives it through the two-speed engine
    (:meth:`~repro.swap.base.VirtualMemory.run_batch`) — bit-identical
    results, fewer simulation events.
    """
    if not 0.0 < fit_fraction <= 1.0:
        raise ValueError("fit_fraction must be in (0, 1]")
    context = _resolve_context(context)
    cluster_config = cluster_config or default_cluster_config(seed=seed)
    cluster, node, backend = _build(
        backend_name, cluster_config, fastswap_config, slabs_per_target
    )
    _install_faults(cluster, fault_schedule)
    rng = cluster.rng
    pages = make_pages(
        spec.pages,
        owner=backend_name,
        compressibility_sampler=spec.compressibility.sampler(rng.stream("pages")),
    )
    capacity = max(1, int(spec.pages * fit_fraction))
    fault_histogram = None
    if record_fault_latency:
        from repro.trace.histogram import LatencyHistogram

        fault_histogram = LatencyHistogram(least=1e-7, buckets=32)
    mmu = VirtualMemory(
        cluster.env,
        pages,
        capacity,
        backend,
        cpu=cluster_config.calibration.cpu,
        prefetch_capacity=prefetch_capacity,
        compute_per_access=spec.compute_per_access,
        fault_histogram=fault_histogram,
        fallback_windows=_fallback_windows(fault_schedule),
    )
    if hasattr(backend, "bind_page_table"):
        backend.bind_page_table(mmu.pages, mmu.stats)

    def job():
        yield from backend.setup()
        mmu.stats.start_time = cluster.env.now
        if fast_path:
            from repro.workloads.batch import materialize

            batch = materialize(spec, rng.stream("trace"))
            yield from mmu.run_batch(batch)
        else:
            touch = mmu.touch
            for page_id, is_write in spec.iter_accesses(rng.stream("trace")):
                if not touch(page_id, is_write):
                    yield from mmu.access(page_id, is_write)
        if not mmu.settle():
            yield from mmu.flush()
        mmu.stats.end_time = cluster.env.now

    cluster.run_process(job(), name="paging:{}".format(backend_name))
    tier_stats, tier_stack = _collect_tier_stats(backend)
    result = PagingRunResult(
        backend=backend_name,
        workload=spec.name,
        fit_fraction=fit_fraction,
        completion_time=mmu.stats.completion_time,
        stats=mmu.stats.snapshot(),
        backend_stats=_collect_backend_stats(backend),
        tier_stats=tier_stats,
        tier_stack=tier_stack,
        latency_stats=_collect_latency_stats(cluster),
        context=context,
        fast_path=fast_path,
    )
    if fault_histogram is not None:
        result.stats["fault_p50_s"] = fault_histogram.p50
        result.stats["fault_p99_s"] = fault_histogram.p99
        result.stats["fault_p999_s"] = fault_histogram.p999
    context.record(result)
    return result


def run_kv_workload(backend_name, spec, fit_fraction, *, duration=5.0,
                    window=0.5, seed=0, cluster_config=None,
                    fastswap_config=None, slabs_per_target=24,
                    cold_start=False, prefetch_capacity=None,
                    fault_schedule=None, context=None, fast_path=False,
                    record_op_latency=False):
    """Closed-loop KV serving for ``duration`` simulated seconds.

    ``cold_start=True`` begins with the whole store swapped out (the
    post-pressure recovery scenario of Figure 9); otherwise the run
    starts with the hottest pages resident.  All tuning arguments are
    keyword-only; see :func:`run_paging_workload` for
    ``fault_schedule``, ``context`` and ``fast_path``.  KV ops stay
    closed-loop under ``fast_path`` (the window bookkeeping needs the
    clock after every op), so only each op's page burst is bulked.
    ``record_op_latency=True`` times every completed op (access burst
    plus flush) into a histogram and fills ``result.op_latency`` with
    p50/p99/p999 — the tail a fault window stretches; op timings are
    byte-identical between the fast and event paths.
    """
    if not 0.0 < fit_fraction <= 1.0:
        raise ValueError("fit_fraction must be in (0, 1]")
    context = _resolve_context(context)
    cluster_config = cluster_config or default_cluster_config(seed=seed)
    cluster, node, backend = _build(
        backend_name, cluster_config, fastswap_config, slabs_per_target
    )
    _install_faults(cluster, fault_schedule)
    rng = cluster.rng
    pages = make_pages(
        spec.pages,
        owner=backend_name,
        compressibility_sampler=spec.compressibility.sampler(rng.stream("pages")),
    )
    capacity = max(1, int(spec.pages * fit_fraction))
    if prefetch_capacity is None:
        # Prefetched pages live in the page cache until pressure; give
        # them a swap-cache share proportional to the resident set.
        prefetch_capacity = max(128, capacity // 4)
    mmu = VirtualMemory(
        cluster.env,
        pages,
        capacity,
        backend,
        cpu=cluster_config.calibration.cpu,
        compute_per_access=spec.compute_per_op,
        prefetch_capacity=prefetch_capacity,
        fallback_windows=_fallback_windows(fault_schedule),
    )
    if hasattr(backend, "bind_page_table"):
        backend.bind_page_table(mmu.pages, mmu.stats)
    timeline = []
    completed = {"ops": 0}
    op_histogram = None
    if record_op_latency:
        from repro.trace.histogram import LatencyHistogram

        op_histogram = LatencyHistogram(least=1e-7, buckets=32)

    def client():
        if fast_path:
            from repro.sim import flatpath
        yield from backend.setup()
        if cold_start:
            # Everything starts swapped out: fill and forcibly evict.
            for page in pages:
                yield from backend.swap_out(page)
                mmu.swapped_valid.add(page.page_id)
            yield from backend.drain()
        start = cluster.env.now
        operations = spec.iter_operations(rng.stream("ops"))
        if not fast_path:
            completed["ops"] = yield from mmu.serve_ops(
                operations, start, duration, window, timeline, op_histogram
            )
            return
        window_end = start + window
        window_ops = 0
        while cluster.env.now - start < duration:
            first_page, count, is_write = next(operations)
            op_began = cluster.env.now
            # Bulk the op's page burst; fall back to the event engine
            # for whatever the kernel would not inline.  An op whose
            # first page would immediately major-fault (cold starts are
            # all such ops) skips the kernel.
            if (
                first_page not in mmu.resident
                and first_page not in mmu.prefetch
                and first_page in mmu.swapped_valid
            ):
                index = 0
            else:
                index, _reason = flatpath.advance(
                    mmu,
                    range(first_page, first_page + count),
                    (is_write,) * count,
                    0,
                )
            for offset in range(index, count):
                yield from mmu.access(first_page + offset, write=is_write)
            if not mmu.settle():
                yield from mmu.flush()
            if op_histogram is not None:
                op_histogram.record(cluster.env.now - op_began)
            window_ops += 1
            completed["ops"] += 1
            while cluster.env.now >= window_end:
                timeline.append(
                    (window_end - start, window_ops / window)
                )
                window_ops = 0
                window_end += window

    cluster.run_process(client(), name="kv:{}".format(backend_name))
    mean = completed["ops"] / duration
    tier_stats, tier_stack = _collect_tier_stats(backend)
    result = KvRunResult(
        backend=backend_name,
        workload=spec.name,
        fit_fraction=fit_fraction,
        mean_throughput=mean,
        timeline=timeline,
        operations=completed["ops"],
        tier_stats=tier_stats,
        tier_stack=tier_stack,
        latency_stats=_collect_latency_stats(cluster),
        op_latency=(
            {
                "count": op_histogram.total,
                "p50_s": op_histogram.p50,
                "p99_s": op_histogram.p99,
                "p999_s": op_histogram.p999,
            }
            if op_histogram is not None
            else {}
        ),
        context=context,
        fast_path=fast_path,
    )
    context.record(result)
    return result


def run_kv_timeline(backend_name, spec, fit_fraction, *, duration=30.0,
                    window=1.0, seed=0, **kwargs):
    """Figure 9 helper: cold-start recovery timeline."""
    return run_kv_workload(
        backend_name,
        spec,
        fit_fraction,
        duration=duration,
        window=window,
        seed=seed,
        cold_start=True,
        **kwargs
    )
