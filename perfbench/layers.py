"""Host-time attribution by layer for the traced benchmark run.

The traced run installs thin timing wrappers around the public entry
points of each layer of ``repro`` (listed in :data:`TARGETS`), runs
the same sweep again, and removes every wrapper afterwards.  Nothing in
``src/`` changes: the wrappers live here and are patched onto classes
and modules at run time.

Attribution rules:

* A layer is named after the module that defines it (``sim.engine``,
  ``tiers.cascade``, ...); a few related entry points share one layer
  (``balance``, ``workloads``).
* Nested wrapped calls are charged to the callee: the clock keeps a
  stack of active layers and bills each interval to the top of the
  stack, or to ``other`` when the stack is empty.  The layer self times
  plus ``other`` therefore sum to the traced wall time exactly.
* Generator entry points are timed per resumption, so simulated waits
  (the generator suspended on an event) are never billed as host time.
  Process bodies that are not wrapped run inside ``Environment.step``
  and are billed to ``sim.engine``.
* Module-level functions are patched in every ``repro`` module that
  imported them by name, and methods on every subclass that overrides
  them when a target asks for subclasses.
* A target that no longer exists is skipped and listed as absent; its
  layer's metrics are omitted rather than reported as zero.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

#: Layer billed for time outside any wrapped call.
OTHER = "other"


class Target:
    """One wrapped entry point: ``module:qualname`` billed to ``layer``.

    ``layer=None`` names the layer after the module defining each
    patched class (used for the tier subclasses).  ``subclasses``
    extends a method target to every loaded subclass that overrides it.
    ``hook`` is called as ``hook(tally, args, kwargs, ok, value)`` when
    the call (or the generator it returned) finishes.  ``prepare``
    rewrites the call's ``(args, kwargs)`` before the call.
    """

    def __init__(self, layer, module, qualname, subclasses=False, hook=None,
                 prepare=None):
        self.layer = layer
        self.module = module
        self.qualname = qualname
        self.subclasses = subclasses
        self.hook = hook
        self.prepare = prepare

    @property
    def key(self):
        return "{}:{}".format(self.module, self.qualname)


# -- hooks: counts a layer reports beside calls and self time ---------------


def _keep(name, attr):
    """Hook: remember the counter object ``args[0].<attr>`` by identity."""

    def hook(tally, args, kwargs, ok, value):
        stats = getattr(args[0], attr)
        tally.objects[name][id(stats)] = stats

    return hook


def _bytes_arg(position, name, fan=False):
    """Hook: add a completed transfer's bytes to ``net.fabric`` bytes."""

    def hook(tally, args, kwargs, ok, value):
        if not ok:
            return
        nbytes = args[position] if len(args) > position else kwargs[name]
        if fan:
            dsts = args[2] if len(args) > 2 else kwargs["dsts"]
            nbytes *= len(list(dsts))
        tally.counts["net.fabric.bytes"] += nbytes

    return hook


def _error_count(name, error_name):
    def hook(tally, args, kwargs, ok, value):
        if not ok and type(value).__name__ == error_name:
            tally.counts[name] += 1

    return hook


def _none_count(name):
    def hook(tally, args, kwargs, ok, value):
        if ok and value is None:
            tally.counts[name] += 1

    return hook


def _flat_result(tally, args, kwargs, ok, value):
    if ok:
        vm = args[0]
        tally.objects["flat"][id(vm.flat_stats)] = vm.flat_stats
        tally.objects["paging"][id(vm.stats)] = vm.stats


def _shed(tally, args, kwargs, ok, value):
    if ok and not value:
        tally.counts["serve.admission.shed"] += 1


def _count_attempts(tally, args, kwargs):
    """Prepare: count every attempt ``retrying`` makes (first + retries)."""
    args = list(args)
    if len(args) > 2:
        attempt = args[2]
    else:
        attempt = kwargs["attempt"]

    def counted():
        tally.counts["net.retry.attempts"] += 1
        return attempt()

    if len(args) > 2:
        args[2] = counted
    else:
        kwargs = dict(kwargs, attempt=counted)
    return tuple(args), kwargs


_ENG = "repro.sim.engine"
_EVT = "repro.sim.events"
_RES = "repro.sim.resources"

#: Every wrapped entry point, grouped by layer.
TARGETS = [
    Target("sim.engine", _ENG, "Environment.step"),
    Target("sim.engine", _ENG, "Environment.run"),
    Target("sim.events", _ENG, "Environment.timeout"),
    Target("sim.events", _EVT, "Event.succeed", subclasses=True),
    Target("sim.process", _ENG, "Environment.process"),
    Target("sim.resources", _RES, "Resource.request", subclasses=True),
    Target("sim.resources", _RES, "Resource.release", subclasses=True),
    Target("sim.resources", _RES, "Store.put"),
    Target("sim.resources", _RES, "Store.get"),
    Target("sim.resources", _RES, "Container.put"),
    Target("sim.resources", _RES, "Container.get"),
    Target("sim.flatpath", "repro.sim.flatpath", "advance",
           hook=_flat_result),
    Target("swap.base", "repro.swap.base", "VirtualMemory.access",
           hook=_keep("paging", "stats")),
    Target("swap.base", "repro.swap.base", "VirtualMemory.run_batch",
           hook=_keep("paging", "stats")),
    Target("swap.base", "repro.swap.base", "VirtualMemory.flush",
           hook=_keep("paging", "stats")),
    Target("tiers.cascade", "repro.tiers.cascade", "TierCascade.swap_in",
           subclasses=True),
    Target("tiers.cascade", "repro.tiers.cascade", "TierCascade.swap_out",
           subclasses=True),
    Target("tiers.cascade", "repro.tiers.cascade", "TierCascade.drain",
           subclasses=True),
    Target("tiers.cascade", "repro.tiers.cascade", "TierCascade.place",
           subclasses=True),
    Target("tiers.cascade", "repro.tiers.cascade",
           "TierCascade.place_batch", subclasses=True),
    Target(None, "repro.tiers.base", "Tier.put", subclasses=True),
    Target(None, "repro.tiers.base", "Tier.put_batch", subclasses=True),
    Target(None, "repro.tiers.base", "Tier.get", subclasses=True),
    Target("net.fabric", "repro.net.fabric", "Fabric.transfer",
           hook=_bytes_arg(3, "nbytes")),
    Target("net.fabric", "repro.net.fabric", "Fabric.fanout",
           hook=_bytes_arg(3, "nbytes_each", fan=True)),
    Target("net.fabric", "repro.net.fabric", "Fabric.control_send"),
    Target("net.rdma", "repro.net.rdma", "QueuePair.write"),
    Target("net.rdma", "repro.net.rdma", "QueuePair.read"),
    Target("net.rdma", "repro.net.rdma", "QueuePair.send"),
    Target("net.retry", "repro.net.retry", "retrying",
           prepare=_count_attempts),
    Target("net.retry", "repro.net.retry", "call_with_timeout",
           hook=_error_count("net.retry.timeouts", "OpTimeout")),
    Target("mem.arena", "repro.mem.arena", "Arena.allocate",
           hook=_error_count("mem.arena.refusals", "AllocationError")),
    Target("mem.arena", "repro.mem.arena", "Arena.free"),
    Target("mem.arena", "repro.mem.arena", "Arena.allocatable_bytes"),
    Target("mem.arena", "repro.mem.arena", "Arena.frag_stats"),
    Target("mem.arena", "repro.mem.arena", "Arena.compact"),
    Target("mem.allocator", "repro.mem.allocator", "SlabAllocator.allocate",
           hook=_error_count("mem.allocator.refusals", "AllocationError")),
    Target("mem.allocator", "repro.mem.allocator", "SlabAllocator.free"),
    Target("mem.allocator", "repro.mem.allocator",
           "SlabAllocator.allocatable_bytes"),
    Target("mem.allocator", "repro.mem.allocator", "SlabAllocator.frag_stats"),
    Target("mem.buffer_pool", "repro.mem.buffer_pool",
           "RdmaBufferPool.reserve_entry",
           hook=_none_count("mem.buffer_pool.refusals")),
    Target("mem.buffer_pool", "repro.mem.buffer_pool",
           "RdmaBufferPool.release_entry"),
    Target("balance", "repro.balance.controller",
           "BalanceController.run_epoch", hook=_keep("balance", "metrics")),
    Target("balance", "repro.balance.telemetry", "TelemetryPlane.collect"),
    Target("balance", "repro.balance.policies", "RebalancePolicy.plan",
           subclasses=True),
    Target("balance", "repro.balance.migration", "MigrationEngine.execute"),
    Target("serve.arrivals", "repro.serve.arrivals", "aggregate"),
    Target("serve.arrivals", "repro.serve.arrivals",
           "ArrivalProcess.arrival_array", subclasses=True),
    Target("serve.admission", "repro.serve.admission",
           "AdmissionPolicy.admit", subclasses=True, hook=_shed),
    Target("serve.accountant", "repro.serve.accountant",
           "ClassAccount.record_completion"),
    Target("serve.driver", "repro.serve.driver", "run_serving_workload"),
    Target("workloads", "repro.workloads.batch", "materialize"),
    Target("workloads", "repro.workloads.batch", "flatten_requests"),
    Target("workloads", "repro.workloads.kv", "KvWorkloadSpec.iter_operations"),
    Target("workloads", "repro.workloads.kv", "KvWorkloadSpec.iter_accesses"),
    Target("workloads", "repro.workloads.ml", "MlWorkloadSpec.iter_accesses"),
    Target("workloads", "repro.workloads.batch",
           "ZipfBatchSpec.iter_accesses"),
    Target("workloads", "repro.workloads.patterns", "ZipfSampler.__init__"),
    Target("workloads", "repro.workloads.patterns", "ZipfSampler.sample"),
    Target("workloads", "repro.workloads.patterns",
           "ZipfSampler.sample_many"),
    Target("trace.histogram", "repro.trace.histogram",
           "LatencyHistogram.record"),
    Target("core.cluster", "repro.core.cluster", "DisaggregatedCluster.build"),
    Target("experiments.engine", "repro.experiments.engine", "normalize"),
]

#: Per-experiment contract functions, billed to ``experiments.engine``.
CONTRACT = ("cells", "compute", "report")

#: Tier layers reported (``tiers.<module>`` of each tier subclass the
#: four workloads exercise).
TIER_LAYERS = (
    "tiers.shared_pool",
    "tiers.remote",
    "tiers.remote_block",
    "tiers.disk",
    "tiers.replicated",
    "tiers.erasure",
)

#: Boundary reasons of the flat-path kernel (``repro.sim.flatpath``).
BOUNDARY_REASONS = (
    "bulk-hold", "fault-window", "sched-events", "major-fault", "eviction-io",
)


def _metric_name(reason):
    return reason.replace("-", "_")


#: Reported layers, in report order.
LAYERS = (
    "sim.engine", "sim.events", "sim.process", "sim.resources",
    "sim.flatpath", "swap.base", "tiers.cascade", *TIER_LAYERS,
    "net.fabric", "net.rdma", "net.retry", "mem.arena", "mem.buffer_pool",
    "mem.allocator", "balance", "serve.arrivals", "serve.admission",
    "serve.accountant", "serve.driver", "workloads", "trace.histogram",
    "core.cluster", "experiments.engine",
)


def metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names.append(layer + ".calls")
        names.append(layer + ".self_s")
        names.extend(layer + "." + extra for extra in EXTRAS.get(layer, ()))
    names.extend(["other.self_s", "trace.overhead_x"])
    return names


#: Extra metrics per layer (beside ``calls`` and ``self_s``).
EXTRAS = {
    "sim.engine": ("steps", "host_us_per_event"),
    "sim.events": ("timeouts",),
    "sim.flatpath": ("bulk_share",) + tuple(
        "boundary_" + _metric_name(reason) for reason in BOUNDARY_REASONS
    ),
    "swap.base": ("accesses", "major_faults"),
    "net.fabric": ("bytes",),
    "net.retry": ("retries", "timeouts"),
    "mem.arena": ("refusals",),
    "mem.buffer_pool": ("refusals",),
    "mem.allocator": ("refusals",),
    "balance": ("aborted_frac",),
    "serve.admission": ("requests", "shed_frac"),
}
for _tier in TIER_LAYERS:
    EXTRAS[_tier] = ("puts", "gets", "hit_ratio")


# -- the clock ---------------------------------------------------------------


class Tally:
    """What one traced sweep measured: self time, calls and counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)  # target key -> calls
        self.counts = defaultdict(int)
        #: name -> {id(obj): obj} counter objects read after the run.
        self.objects = defaultdict(dict)
        self.stack = []
        self.last = 0.0
        self.started = 0.0
        self.stopped = 0.0
        self.running = False

    def start(self):
        self.started = self.last = perf_counter()
        self.running = True

    def stop(self):
        self.stopped = now = perf_counter()
        self.self_s[self.stack[-1] if self.stack else OTHER] += now - self.last
        self.last = now
        self.running = False
        return self.stopped - self.started

    def enter(self, layer):
        # Outside start()..stop() (e.g. a finalizer run by the garbage
        # collector) the stack still moves, but nothing is billed.
        if self.running:
            now = perf_counter()
            stack = self.stack
            self.self_s[stack[-1] if stack else OTHER] += now - self.last
            self.last = now
        self.stack.append(layer)

    def leave(self):
        layer = self.stack.pop()
        if self.running:
            now = perf_counter()
            self.self_s[layer] += now - self.last
            self.last = now


def _timed_generator(tally, layer, gen, finish):
    """Drive ``gen`` like ``yield from``, timing each resumption."""
    enter, leave = tally.enter, tally.leave
    value = None
    error = None
    while True:
        enter(layer)
        try:
            if error is None:
                item = gen.send(value)
            else:
                item, error = gen.throw(error), None
        except StopIteration as stop:
            leave()
            finish(True, stop.value)
            return stop.value
        except BaseException as failure:
            leave()
            finish(False, failure)
            raise
        leave()
        value = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into ``gen``
            error = thrown


def _wrap(tally, target, key, layer, fn):
    """A wrapper of ``fn`` billing its host time to ``layer``."""
    hook, prepare = target.hook, target.prepare

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tally.calls[key] += 1
            if prepare is not None:
                args, kwargs = prepare(tally, args, kwargs)

            def finish(ok, value):
                if hook is not None:
                    hook(tally, args, kwargs, ok, value)

            return (yield from _timed_generator(
                tally, layer, fn(*args, **kwargs), finish
            ))

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tally.calls[key] += 1
        if prepare is not None:
            args, kwargs = prepare(tally, args, kwargs)
        tally.enter(layer)
        try:
            value = fn(*args, **kwargs)
        except BaseException as failure:
            tally.leave()
            if hook is not None:
                hook(tally, args, kwargs, False, failure)
            raise
        tally.leave()
        if inspect.isgenerator(value):
            # A plain function handing back a generator: time the
            # generator's resumptions too.
            def finish(ok, result):
                if hook is not None:
                    hook(tally, args, kwargs, ok, result)

            timed = _timed_generator(tally, layer, value, finish)
            timed.__name__ = value.__name__
            timed.__qualname__ = value.__qualname__
            return timed
        if hook is not None:
            hook(tally, args, kwargs, True, value)
        return value

    return wrapper


def import_all():
    """Import every ``repro`` module, so patches reach each importer."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _subclasses(cls):
    seen = []
    stack = list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub not in seen:
            seen.append(sub)
            stack.extend(sub.__subclasses__())
    return seen


def _layer_of(cls):
    return cls.__module__.split(".", 1)[1]


class Installation:
    """The wrappers installed for one traced sweep; restore afterwards.

    Keys name each wrapped callable as ``module.Class.method`` or
    ``module.function``; :attr:`key_layers` maps them to their layer.
    """

    def __init__(self, tally):
        self.tally = tally
        self.patched = []  # (owner, attribute, original raw value)
        self.absent = []  # target keys that no longer exist
        self.layers = set()
        self.key_layers = {}

    def _patch(self, owner, attribute, raw, replacement):
        self.patched.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def _patch_method(self, target, cls, method, layer):
        raw = cls.__dict__[method]
        key = "{}.{}.{}".format(cls.__module__, cls.__qualname__, method)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                _wrap(self.tally, target, key, layer, raw.__func__)
            )
        else:
            wrapped = _wrap(self.tally, target, key, layer, raw)
        self._patch(cls, method, raw, wrapped)
        self.layers.add(layer)
        self.key_layers[key] = layer

    def _patch_function(self, target, module, name, layer):
        original = getattr(module, name)
        key = "{}.{}".format(module.__name__, name)
        wrapped = _wrap(self.tally, target, key, layer, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, attribute, original, wrapped)
        self.layers.add(layer)
        self.key_layers[key] = layer

    def _install_one(self, target):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return False
        owner_name, _, method = target.qualname.rpartition(".")
        if not owner_name:
            if not callable(getattr(module, method, None)):
                return False
            self._patch_function(target, module, method, target.layer)
            return True
        cls = getattr(module, owner_name, None)
        if not isinstance(cls, type) or not callable(
            getattr(cls, method, None)
        ):
            return False
        classes = [cls] + (_subclasses(cls) if target.subclasses else [])
        for each in classes:
            if method not in each.__dict__:
                continue
            if target.layer is None and each is cls:
                continue  # the abstract base: bill its callers instead
            self._patch_method(
                target, each, method, target.layer or _layer_of(each)
            )
        return True

    def install(self, targets, contract_modules=()):
        """Patch every target, then each experiment module's contract."""
        targets = list(targets)
        for module in contract_modules:
            targets.extend(
                Target("experiments.engine", module.__name__, name)
                for name in CONTRACT
            )
        for target in targets:
            if not self._install_one(target):
                self.absent.append(target.key)
        return self

    def restore(self):
        """Put back every patched attribute, newest first; verify it."""
        for owner, attribute, raw in reversed(self.patched):
            setattr(owner, attribute, raw)
        for owner, attribute, raw in self.patched:
            if vars(owner).get(attribute) is not raw:
                raise RuntimeError(
                    "wrapper left on {!r}.{}".format(owner, attribute)
                )
        self.patched = []


# -- metrics -----------------------------------------------------------------


def layer_metrics(tally, installation, untraced_wall_s, traced_wall_s):
    """Fold one traced sweep's tally into the per-layer metric dict.

    Layers with no installed wrapper are left out (absent), not zero.
    """
    key_layers = installation.key_layers
    calls = defaultdict(int)
    for key, count in tally.calls.items():
        calls[key_layers[key]] += count

    def calls_of(method, layer=None):
        return sum(
            count for key, count in tally.calls.items()
            if key.rpartition(".")[2] == method
            and (layer is None or key_layers[key] == layer)
        )

    present = installation.layers
    metrics = {}
    for layer in sorted(present):
        metrics[layer + ".calls"] = calls.get(layer, 0)
        metrics[layer + ".self_s"] = tally.self_s.get(layer, 0.0)
    paging = list(tally.objects["paging"].values())
    flat = list(tally.objects["flat"].values())
    balance = list(tally.objects["balance"].values())
    accesses = sum(stats.accesses for stats in paging)
    steps = calls_of("step", "sim.engine")
    extras = {
        "sim.engine.steps": steps,
        "sim.engine.host_us_per_event": _ratio(untraced_wall_s * 1e6, steps),
        "sim.events.timeouts": calls_of("timeout", "sim.events"),
        "swap.base.accesses": accesses,
        "swap.base.major_faults": sum(s.major_faults for s in paging),
        "sim.flatpath.bulk_share": _ratio(
            sum(stats.bulk_accesses for stats in flat), accesses
        ),
        "net.fabric.bytes": tally.counts["net.fabric.bytes"],
        "net.retry.retries": max(
            0, tally.counts["net.retry.attempts"]
            - calls_of("retrying", "net.retry")
        ),
        "net.retry.timeouts": tally.counts["net.retry.timeouts"],
        "mem.arena.refusals": tally.counts["mem.arena.refusals"],
        "mem.buffer_pool.refusals": tally.counts["mem.buffer_pool.refusals"],
        "mem.allocator.refusals": tally.counts["mem.allocator.refusals"],
        "balance.aborted_frac": _ratio(
            sum(m.migrations_aborted for m in balance),
            sum(m.migrations_started for m in balance),
        ),
        "serve.admission.requests": calls.get("serve.admission", 0),
        "serve.admission.shed_frac": _ratio(
            tally.counts["serve.admission.shed"],
            calls.get("serve.admission", 0),
        ),
    }
    for reason in BOUNDARY_REASONS:
        extras["sim.flatpath.boundary_" + _metric_name(reason)] = sum(
            stats.boundaries.get(reason, 0) for stats in flat
        )
    swap_ins = calls_of("swap_in", "tiers.cascade")
    for tier in TIER_LAYERS:
        gets = calls_of("get", tier)
        extras[tier + ".puts"] = calls_of("put", tier) + calls_of(
            "put_batch", tier
        )
        extras[tier + ".gets"] = gets
        extras[tier + ".hit_ratio"] = _ratio(gets, swap_ins)
    for name, value in extras.items():
        if name.rpartition(".")[0] in present:
            metrics[name] = value
    metrics["other.self_s"] = tally.self_s.get(OTHER, 0.0)
    metrics["trace.overhead_x"] = _ratio(traced_wall_s, untraced_wall_s)
    return metrics


def _ratio(part, whole):
    return part / whole if whole else 0.0

