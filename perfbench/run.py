"""Benchmark entry point: one measured run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paging --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh interpreter (``worker.py``), so set-up
time and peak memory belong to that workload alone.  ``--trace 0``
reports the end-to-end metrics: ``setup_s`` is the median of several
fresh set-ups; ``host_us_per_op`` is the host time of one untraced
pass over the workload's sweeps, corrected to a nominal CPU speed with
the reference kernel of ``reference.py``, per simulated operation (see
``suite.py``), so seeds that generate more or less work compare; it is
the median over the passes that fit in ``--seconds`` (at least one).  ``peak_rss_mb`` is the sweep process's peak resident
memory.  ``--trace 1`` reports the per-layer metrics of one traced pass
(see ``layers.py``), measured against one untraced pass.

Output: a ``digest`` line (sha256 over every cell payload), a
``manifest`` line (seed, code salt, Python, nproc, host seconds per
cell, any failures), then the result object as the last line.  Exit
status is non-zero, with no result printed, when the program cannot be
run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import suite  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` per run, half of them
#: before the sweep and half after, so that they sample two stretches
#: of the machine's speed.
SETUP_SAMPLES = 8
#: Hard wall-clock budget of one run, seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "host_us_per_op": "us",
    "peak_rss_mb": "MB",
}

MODEL = (
    "host.wall_s",
    "host.cpu_s",
    "model.sim_completion_s",
    "model.sim_op_p99_s",
    "model.sim_goodput_rps",
    "model.sim_harvest_yield",
    "model.sim_accesses_per_s",
)


def per_layer_names():
    return layers.metric_names() + list(MODEL)


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    metric = name.rpartition(".")[2]
    if metric in ("self_s", "wall_s", "cpu_s", "sim_completion_s",
                  "sim_op_p99_s"):
        return "s"
    if metric in ("sim_goodput_rps", "sim_accesses_per_s"):
        return "1/s"
    if metric in ("hit_ratio", "bulk_share", "aborted_frac", "shed_frac",
                  "sim_harvest_yield"):
        return "ratio"
    return {
        "bytes": "B", "host_us_per_event": "us", "overhead_x": "x",
    }.get(metric, "count")


class BenchError(Exception):
    """The program could not be measured; no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        src = ROOT / "src"
        if not (src / "repro" / "__init__.py").is_file():
            raise BenchError("no program to measure: {} is missing".format(
                src / "repro"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        # Hash randomization off: payload digests compare across runs.
        self.env["PYTHONHASHSEED"] = "0"

    def call(self, argv):
        """Run one child to completion; returns its result object."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget of {} s spent".format(RUN_BUDGET_S))
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("{} timed out".format(argv[:2])) from None
        if proc.returncode != 0:
            raise BenchError("{} exited {}:\n{}".format(
                argv[:2], proc.returncode, proc.stderr[-4000:]))
        return proc.stdout

    def worker(self, mode, *extra):
        args = self.args
        out = self.call([
            str(HERE / "worker.py"), mode, "--workload", args.workload,
            "--seed", str(args.seed), *extra,
        ])
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError("worker {} printed no result".format(mode))

    def compile_sources(self):
        """Byte-compile the program once, so set-ups time warm imports."""
        self.call(["-m", "compileall", "-q", str(ROOT / "src" / "repro")])

    def setup_seconds(self, count):
        samples = []
        for _ in range(count):
            started = time.monotonic()
            result = self.worker("setup", "--started", repr(started))
            samples.append(result["setup_s"])
        return samples

    def measure(self):
        self.compile_sources()
        if self.args.trace:
            result = self.worker("trace")
            reported = result["metrics"]
            metrics = {
                name: {"value": reported[name], "unit": unit_of(name)}
                for name in per_layer_names() if name in reported
            }
        else:
            setups = self.setup_seconds(SETUP_SAMPLES // 2)
            result = self.worker(
                "sweep", "--seconds", repr(float(self.args.seconds))
            )
            setups += self.setup_seconds(SETUP_SAMPLES - len(setups))
            values = {
                "setup_s": statistics.median(setups),
                "host_us_per_op": result["corrected_s"] * 1e6 / result["ops"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            result["setup_samples_s"] = setups
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()
            }
        return result, metrics


def manifest(args, result):
    workload = suite.WORKLOADS[args.workload]
    doc = {
        "workload": args.workload,
        "experiments": [name for name, _options in workload.experiments],
        "scale": workload.scale,
        "seed": args.seed,
        "program_seed": result["program_seed"],
        "trace": args.trace,
        "salt": result["salt"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cell_s": result["cell_s"],
        "failures": result["failures"],
        "model": result["model"],
    }
    for key in ("corrected_s", "readings", "wall_s", "cpu_s", "ops",
                "setup_samples_s", "untraced_wall_s", "traced_wall_s",
                "absent"):
        if key in result:
            doc[key] = result[key]
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, metrics = Runner(args).measure()
    except BenchError as error:
        print("perfbench: {}".format(error), file=sys.stderr)
        return 1
    print("digest {} {}".format(args.workload, result["digest"]))
    print("manifest " + json.dumps(manifest(args, result), sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
