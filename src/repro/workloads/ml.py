"""Iterative ML / graph analytics workloads as page-reference traces.

Each iteration of an iterative analytics job sweeps its working set
(model + partitioned input), with a skewed random component on top
(graph workloads chase hot vertices; K-Means re-reads centroids).  The
trace generator emits ``(page_id, is_write)`` pairs:

* a full sequential scan of the working set per iteration,
* interleaved Zipf accesses at ``random_ratio`` per scan step,
* writes at ``write_fraction`` (model updates / intermediate state).

The per-application parameters live in
:mod:`repro.workloads.catalog`; this module is the engine.
"""

from dataclasses import dataclass, field

from repro.mem.compression import CompressibilityProfile
from repro.workloads.patterns import ZipfSampler


@dataclass
class MlWorkloadSpec:
    """Shape of one iterative analytics workload.

    Implements the unified WorkloadSpec protocol
    (:mod:`repro.workloads.spec`): ``iter_accesses``/``as_batch`` plus
    the closed-loop ``arrival_process = None`` hook.
    """

    #: Open-loop hook of the WorkloadSpec protocol: ML sweeps are
    #: closed-loop (accesses issue back to back).
    arrival_process = None

    name: str
    #: Working-set size in pages (already scaled for simulation).
    pages: int = 4096
    #: Full working-set sweeps.
    iterations: int = 4
    #: Probability of an interleaved random access after each scan step.
    random_ratio: float = 0.3
    #: Zipf skew of the random component.
    zipf_alpha: float = 0.9
    #: Fraction of accesses that write.
    write_fraction: float = 0.3
    #: CPU time per access (the compute the job does between touches).
    compute_per_access: float = 8.0e-6
    #: How pages compress (drives Figures 3–5).
    compressibility: CompressibilityProfile = field(
        default_factory=lambda: CompressibilityProfile("default", 3.0)
    )

    @property
    def approximate_accesses(self):
        """Expected trace length."""
        return int(self.pages * self.iterations * (1.0 + self.random_ratio))

    def iter_accesses(self, rng):
        """Generate the ``(page_id, is_write)`` reference stream."""
        zipf = ZipfSampler(self.pages, self.zipf_alpha, rng)
        for _ in range(self.iterations):
            for page_id in range(self.pages):
                yield page_id, rng.random() < self.write_fraction
                if self.random_ratio and rng.random() < self.random_ratio:
                    yield zipf.sample(), rng.random() < self.write_fraction

    def as_batch(self, rng):
        """The same reference string as an
        :class:`~repro.workloads.batch.AccessBatch`.

        Draws from ``rng`` in exactly the interleaved order
        :meth:`iter_accesses` does (write flag, ratio coin, then the
        optional Zipf draw and its write flag), so a batched run
        replays the streamed run's string bit for bit.
        """
        from repro.workloads.batch import AccessBatch

        addresses = []
        writes = []
        add_address = addresses.append
        add_write = writes.append
        random = rng.random
        write_fraction = self.write_fraction
        ratio = self.random_ratio
        zipf = ZipfSampler(self.pages, self.zipf_alpha, rng)
        sample = zipf.sample
        for _ in range(self.iterations):
            for page_id in range(self.pages):
                add_address(page_id)
                add_write(random() < write_fraction)
                if ratio and random() < ratio:
                    add_address(sample())
                    add_write(random() < write_fraction)
        return AccessBatch(addresses, writes)

    def with_overrides(self, **kwargs):
        """A copy with fields replaced (for sweeps)."""
        from dataclasses import replace

        return replace(self, **kwargs)


def _profile(name, mean, sigma=0.35, incompressible=0.05):
    return CompressibilityProfile(
        name, mean_ratio=mean, sigma=sigma, incompressible_fraction=incompressible
    )


#: The seven iterative analytics workloads of Table 1 (the remaining
#: three — Memcached, Redis, VoltDB — are KV serving workloads and live
#: in :mod:`repro.workloads.kv`).  Compressibility means reflect that
#: sparse graph/matrix data compresses well and dense numeric vectors
#: less so.
ML_WORKLOADS = {
    "pagerank": MlWorkloadSpec(
        name="pagerank",
        random_ratio=0.5,
        zipf_alpha=1.05,
        write_fraction=0.25,
        compressibility=_profile("pagerank", 3.4),
    ),
    "logistic_regression": MlWorkloadSpec(
        name="logistic_regression",
        random_ratio=0.15,
        zipf_alpha=0.6,
        write_fraction=0.2,
        compressibility=_profile("logistic_regression", 3.0),
    ),
    "tunkrank": MlWorkloadSpec(
        name="tunkrank",
        random_ratio=0.55,
        zipf_alpha=1.1,
        write_fraction=0.3,
        compressibility=_profile("tunkrank", 3.2),
    ),
    "kmeans": MlWorkloadSpec(
        name="kmeans",
        random_ratio=0.2,
        zipf_alpha=0.8,
        write_fraction=0.15,
        compressibility=_profile("kmeans", 2.4),
    ),
    "svm": MlWorkloadSpec(
        name="svm",
        random_ratio=0.25,
        zipf_alpha=0.7,
        write_fraction=0.2,
        compressibility=_profile("svm", 2.7),
    ),
    "connected_components": MlWorkloadSpec(
        name="connected_components",
        random_ratio=0.45,
        zipf_alpha=1.0,
        write_fraction=0.35,
        compressibility=_profile("connected_components", 3.6),
    ),
    "als": MlWorkloadSpec(
        name="als",
        random_ratio=0.3,
        zipf_alpha=0.85,
        write_fraction=0.25,
        compressibility=_profile("als", 2.2),
    ),
}
