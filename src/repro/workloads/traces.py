"""Recording and replaying page-reference traces (workload *inputs*).

Not to be confused with :mod:`repro.trace`, the execution-tracing
package: this module records the *page accesses a workload performs*
(simulation input, replayable in place of a synthetic generator),
while ``repro.trace`` records the *events a simulation run emits*
(simulation output, for Perfetto and the trace-invariant analyzer).

Synthetic generators are convenient, but real studies replay captured
traces.  This module provides a small, versioned on-disk format:

* :func:`record_trace` — materialize a workload spec into a
  :class:`RecordedTrace`;
* :func:`save_trace` / :func:`load_trace` — a line-oriented text format
  with a self-describing header;
* :class:`RecordedTrace` — duck-types the unified WorkloadSpec
  protocol (``name``, ``pages``, ``compute_per_access``,
  ``compressibility``, ``iter_accesses(rng)``; see
  :mod:`repro.workloads.spec`), so a loaded trace drops straight into
  :func:`repro.experiments.runner.run_paging_workload`.

Format (text, one record per line)::

    #repro-trace v1
    name=<workload>
    pages=<int>
    compute_per_access=<float>
    compress_mean=<float> compress_sigma=<float> compress_incompressible=<float>
    ---
    <page_id> <0|1>        # one access per line; 1 = write
"""

from repro.mem.compression import CompressibilityProfile
from repro.workloads.spec import iter_accesses as _iter_accesses

__all__ = ["RecordedTrace", "record_trace", "save_trace", "load_trace"]

FORMAT_MAGIC = "#repro-trace v1"


class RecordedTrace:
    """A materialized access trace, replayable like a workload spec."""

    def __init__(self, name, pages, accesses, compute_per_access=1e-6,
                 compressibility=None):
        self.name = name
        self.pages = pages
        self.accesses = list(accesses)
        self.compute_per_access = compute_per_access
        self.compressibility = compressibility or CompressibilityProfile(
            name, mean_ratio=2.0
        )
        for page_id, _write in self.accesses:
            if not 0 <= page_id < pages:
                raise ValueError(
                    "access to page {} outside [0, {})".format(page_id, pages)
                )

    def __len__(self):
        return len(self.accesses)

    #: Open-loop hook of the WorkloadSpec protocol (replay is
    #: closed-loop).
    arrival_process = None

    def iter_accesses(self, rng=None):
        """Replay the recorded accesses (``rng`` accepted for interface
        compatibility; replay is exact and ignores it)."""
        return iter(self.accesses)

    def with_overrides(self, **kwargs):
        """Interface parity with the generator specs (only
        ``compute_per_access`` and ``name`` may be overridden)."""
        allowed = {"compute_per_access", "name"}
        unknown = set(kwargs) - allowed
        if unknown:
            raise ValueError("cannot override {} on a recorded trace".format(
                sorted(unknown)))
        clone = RecordedTrace(
            kwargs.get("name", self.name),
            self.pages,
            self.accesses,
            compute_per_access=kwargs.get(
                "compute_per_access", self.compute_per_access
            ),
            compressibility=self.compressibility,
        )
        return clone


def record_trace(spec, rng):
    """Materialize ``spec``'s reference stream into a RecordedTrace."""
    accesses = list(_iter_accesses(spec, rng))
    return RecordedTrace(
        spec.name,
        spec.pages,
        accesses,
        compute_per_access=spec.compute_per_access,
        compressibility=spec.compressibility,
    )


def save_trace(trace, path):
    """Write a trace to ``path`` in the v1 text format."""
    profile = trace.compressibility
    with open(path, "w") as handle:
        handle.write(FORMAT_MAGIC + "\n")
        handle.write("name={}\n".format(trace.name))
        handle.write("pages={}\n".format(trace.pages))
        handle.write("compute_per_access={!r}\n".format(
            trace.compute_per_access))
        handle.write(
            "compress_mean={!r} compress_sigma={!r} "
            "compress_incompressible={!r}\n".format(
                profile.mean_ratio, profile.sigma,
                profile.incompressible_fraction,
            )
        )
        handle.write("---\n")
        for page_id, write in trace.accesses:
            handle.write("{} {}\n".format(page_id, 1 if write else 0))


def load_trace(path):
    """Read a trace previously written by :func:`save_trace`."""
    with open(path) as handle:
        magic = handle.readline().rstrip("\n")
        if magic != FORMAT_MAGIC:
            raise ValueError("not a repro trace file: {!r}".format(magic))
        header = {}
        for line in handle:
            line = line.rstrip("\n")
            if line == "---":
                break
            for field in line.split():
                key, _eq, value = field.partition("=")
                header[key] = value
        else:
            raise ValueError("truncated trace: missing '---' separator")
        accesses = []
        for line in handle:
            page_field, write_field = line.split()
            accesses.append((int(page_field), write_field == "1"))
    profile = CompressibilityProfile(
        header["name"],
        mean_ratio=float(header["compress_mean"]),
        sigma=float(header["compress_sigma"]),
        incompressible_fraction=float(header["compress_incompressible"]),
    )
    return RecordedTrace(
        header["name"],
        int(header["pages"]),
        accesses,
        compute_per_access=float(header["compute_per_access"]),
        compressibility=profile,
    )
