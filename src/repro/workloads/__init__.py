"""Workload generators: the ten applications of the paper's Table 1.

The paper evaluates ten memory-intensive applications (working sets
25–30 GB, inputs 12–20 GB per virtual server); we reproduce each as a
synthetic generator scaled down ~1000x, preserving what determines
paging behaviour: the access pattern (iterative scans + skewed random
access), the read/write mix, per-access compute, and page
compressibility.

The unified WorkloadSpec protocol
---------------------------------

Every spec in this package — ML trace generators, KV serving stores,
recorded traces, batch-first synthetics — implements **one** contract
(defined and fully documented in :mod:`repro.workloads.spec`):

* ``name`` / ``pages`` / ``compressibility`` — identity and sizing;
* ``iter_accesses(rng)`` — the streamed ``(page_id, is_write)``
  reference string (finite for trace-shaped specs, infinite for
  serving specs);
* ``as_batch(rng[, length])`` — the same string as an
  :class:`~repro.workloads.batch.AccessBatch`, RNG-order-identical to
  the stream (``length`` = operation count, required only by infinite
  specs);
* ``arrival_process`` — the open-loop hook consumed by
  :mod:`repro.serve`: ``None`` for closed-loop specs, else an arrival
  process whose inter-arrival gaps fill ``AccessBatch.gaps``.

Operation-granular specs (the KV family) additionally expose
``iter_operations(rng)`` / ``ops_batch(rng, count)`` yielding
``(first_page_id, page_count, is_write)``.

Modules
-------

* :mod:`repro.workloads.spec` — the WorkloadSpec protocol and its
  dispatch helpers;
* :mod:`repro.workloads.patterns` — reusable access-pattern primitives
  (scans, Zipf, strides);
* :mod:`repro.workloads.batch` — pre-materialized access batches, the
  input contract of the flat-path kernel (two-speed engine);
* :mod:`repro.workloads.ml` — iterative analytics workloads (PageRank,
  Logistic Regression, TunkRank, K-Means, SVM, Connected Components,
  ALS) as page-reference traces;
* :mod:`repro.workloads.kv` — key-value serving workloads (Memcached
  ETC, Redis, VoltDB) as closed-loop clients with throughput windows;
* :mod:`repro.workloads.catalog` — Table 1 itself: every application
  with its (scaled) working set, input size and profile.
"""

from repro.workloads.batch import AccessBatch, ZipfBatchSpec, materialize
from repro.workloads.catalog import (
    APPLICATIONS,
    ApplicationSpec,
    get_application,
    iter_applications,
)
from repro.workloads.kv import KvWorkloadSpec, KV_WORKLOADS
from repro.workloads.ml import MlWorkloadSpec, ML_WORKLOADS
from repro.workloads.patterns import ZipfSampler
from repro.workloads.spec import iter_accesses, spec_batch
from repro.workloads.traces import RecordedTrace, load_trace, record_trace, save_trace

__all__ = [
    "APPLICATIONS",
    "AccessBatch",
    "ApplicationSpec",
    "KV_WORKLOADS",
    "KvWorkloadSpec",
    "ML_WORKLOADS",
    "MlWorkloadSpec",
    "RecordedTrace",
    "ZipfBatchSpec",
    "ZipfSampler",
    "get_application",
    "iter_accesses",
    "iter_applications",
    "load_trace",
    "materialize",
    "record_trace",
    "save_trace",
    "spec_batch",
]
