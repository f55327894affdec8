"""One benchmark measurement in a fresh interpreter (spawned by run.py).

Modes:

* ``setup``  — import the program, load the workload's experiment
  modules and build their cell lists, then report the seconds since the
  parent spawned this interpreter (``--started``, a ``time.monotonic``
  reading, which is system-wide on Linux).
* ``sweep``  — set up, then run the workload's whole sweeps untraced,
  again and again until ``--seconds`` would be exceeded (at least once),
  timing each pass in seconds and in seconds corrected to the nominal
  CPU of :mod:`reference`.
* ``trace``  — set up, run one untraced pass, then one pass with the
  layer wrappers of :mod:`layers` installed, and fold the per-layer
  tally.

The last line of standard output is one JSON object for run.py.
"""

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time

import layers
import reference
import suite


def set_up(workload, seed):
    """What precedes the first cell: imports, registry.load, cells()."""
    from repro.experiments import engine, registry

    modules = []
    for name, options in workload.experiments:
        module = registry.load(name)
        module.cells(scale=workload.scale, seed=seed, **options)
        modules.append(module)
    return engine, modules


class CellClock:
    """Host seconds per cell: times each experiment module's compute.

    ``seconds`` holds one wall-clock reading per computed cell, in cell
    order, less the time a ``sampler`` spent in kernel readings during
    the cell.
    """

    def __init__(self, modules, sampler=None):
        self.modules = modules
        self.sampler = sampler
        self.seconds = []
        self.originals = {}

    def sampled(self):
        """Seconds the sampler has spent in kernel readings so far."""
        return self.sampler.kernel_seconds if self.sampler else 0.0

    def __enter__(self):
        for module in self.modules:
            compute = module.compute
            self.originals[module] = compute

            def timed(spec, compute=compute):
                sampled = self.sampled()
                began = time.perf_counter()
                try:
                    return compute(spec)
                finally:
                    self.seconds.append(
                        time.perf_counter() - began
                        - (self.sampled() - sampled)
                    )

            module.compute = timed
        return self

    def __exit__(self, *exc_info):
        for module, compute in self.originals.items():
            module.compute = compute
        return False


def run_pass(engine, workload, seed):
    """Every sweep of the workload once; returns the ExperimentRuns."""
    kwargs = workload.run_kwargs(engine.run_experiment, seed)
    return [
        engine.run_experiment(name, **kwargs, **options)
        for name, options in workload.experiments
    ]


class Pass:
    """One timed pass: host seconds (less any kernel readings) and, when
    sampled, the pass's host seconds corrected to the nominal CPU."""

    def __init__(self, clock, wall, cpu, sampler=None):
        self.wall = wall
        self.cpu = cpu
        self.cell_wall = clock.seconds
        self.corrected = sampler.corrected_seconds if sampler else 0.0
        self.readings = sampler.readings if sampler else 0


def timed_pass(engine, modules, workload, seed, kernel=None):
    """Run every sweep once, untraced; returns ``(runs, Pass)``.

    The garbage left by earlier passes is collected first, so each pass
    starts from the same heap.  Given a reference ``kernel``, a
    :class:`reference.SpeedSampler` also corrects the pass's host time
    to the nominal CPU.
    """
    gc.collect()
    sampler = reference.SpeedSampler(kernel) if kernel else None
    with sampler or contextlib.nullcontext():
        with CellClock(modules, sampler) as clock:
            sampled = clock.sampled()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            runs = run_pass(engine, workload, seed)
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            sampled = clock.sampled() - sampled
    return runs, Pass(clock, wall - sampled, cpu - sampled, sampler)


def _rss_mb():
    """Resident set size now, from ``/proc/self/status``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def judge(workload, first, digests):
    """Checks on the first pass's runs, plus digest agreement of every
    pass (``digests`` holds one cell-digest list per pass)."""
    expected = digests[0]
    checked = workload.check(first)
    failures = ["cell {}: {}".format(i, msg) for i, msg in
                sorted(checked.items())]
    failed = len(checked) * len(digests)
    for number, other in enumerate(digests[1:], start=1):
        for index, (want, got) in enumerate(zip(expected, other)):
            if want != got:
                failed += 1
                failures.append(
                    "cell {}: pass {} payload differs".format(index, number)
                )
    return {
        "attempted": len(expected) * len(digests),
        "failed": failed,
        "failures": failures,
        "digest": suite.workload_digest(expected),
        "model": suite.model_metrics(first),
    }


def mode_setup(args, workload):
    set_up(workload, args.seed)
    return {"setup_s": time.monotonic() - args.started}


def mode_sweep(args, workload):
    engine, modules = set_up(workload, args.seed)
    before = _rss_mb()
    kernel = reference.Kernel()
    # The kernel's table is not the program's memory.
    kernel_mb = _rss_mb() - before
    first, digests, passes = None, [], []
    began = time.perf_counter()
    while not passes or (
        time.perf_counter() - began
        + statistics.fmean(each.wall for each in passes) <= args.seconds
    ):
        runs, timing = timed_pass(
            engine, modules, workload, args.seed, kernel
        )
        # Only the first pass's payloads are kept (for the checks), so
        # peak memory does not grow with the number of passes.
        if first is None:
            first = runs
        digests.append(suite.cell_digests(runs))
        del runs
        passes.append(timing)
    result = judge(workload, first, digests)
    result.update(
        corrected_s=statistics.median(each.corrected for each in passes),
        readings=[each.readings for each in passes],
        wall_s=[each.wall for each in passes],
        cpu_s=[each.cpu for each in passes],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0 - kernel_mb,
        cell_s=[statistics.median(column)
                for column in zip(*(each.cell_wall for each in passes))],
        ops=workload.ops(first),
        salt=engine.code_version(),
    )
    return result


def mode_trace(args, workload):
    engine, modules = set_up(workload, args.seed)
    layers.import_all()
    untraced, timing = timed_pass(engine, modules, workload, args.seed)
    wall = timing.wall
    # Finalize the untraced pass's leftover generators now, so their
    # clean-up code is not billed to the traced pass.
    gc.collect()
    tally = layers.Tally()
    installation = layers.Installation(tally)
    try:
        installation.install(layers.TARGETS, modules)
        tally.start()
        traced = run_pass(engine, workload, args.seed)
        traced_wall = tally.stop()
    finally:
        installation.restore()
    result = judge(
        workload, untraced,
        [suite.cell_digests(untraced), suite.cell_digests(traced)],
    )
    metrics = layers.layer_metrics(tally, installation, wall, traced_wall)
    attributed = sum(tally.self_s.values())
    if abs(attributed - traced_wall) > 1e-6 * traced_wall:
        result["failures"].append(
            "self times sum to {} s, traced wall {} s".format(
                attributed, traced_wall
            )
        )
        result["failed"] += 1
    model = result["model"]
    for name in ("model.sim_completion_s", "model.sim_op_p99_s",
                 "model.sim_goodput_rps", "model.sim_harvest_yield"):
        metrics[name] = model[name]
    metrics["model.sim_accesses_per_s"] = model["model.sim_accesses"] / wall
    metrics["host.wall_s"] = wall
    metrics["host.cpu_s"] = timing.cpu
    result.update(
        metrics=metrics,
        untraced_wall_s=wall,
        traced_wall_s=traced_wall,
        absent=installation.absent,
        cell_s=timing.cell_wall,
        salt=engine.code_version(),
    )
    return result


MODES = {"setup": mode_setup, "sweep": mode_sweep, "trace": mode_trace}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--started", type=float, default=0.0)
    args = parser.parse_args(argv)
    workload = suite.WORKLOADS[args.workload]
    args.seed = workload.program_seed(args.seed)
    result = MODES[args.mode](args, workload)
    result["program_seed"] = args.seed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
