"""Metrics and reporting utilities.

* :mod:`repro.metrics.stats` — counters, running statistics and time
  series used by long-running simulations (latency histograms live in
  :mod:`repro.trace.histogram`);
* :mod:`repro.metrics.reporting` — plain-text tables and series
  renderers so every experiment prints the same rows the paper's
  figures plot;
* :mod:`repro.metrics.recovery` — per-tier recovery metrics
  (time-to-recover, pages lost, degraded-mode reads) for the
  resilience experiments;
* :mod:`repro.metrics.balance` — migration/plan counters and the
  imbalance coefficient-of-variation series for the memory-balancing
  control plane.
"""

from repro.metrics.balance import BalanceMetrics, coefficient_of_variation
from repro.metrics.recovery import RecoveryTracker
from repro.metrics.reporting import (
    format_series,
    format_table,
    format_tier_breakdown,
)
from repro.metrics.stats import Counter, RunningStats, TimeSeries

__all__ = [
    "BalanceMetrics",
    "Counter",
    "coefficient_of_variation",
    "RecoveryTracker",
    "RunningStats",
    "TimeSeries",
    "format_series",
    "format_table",
    "format_tier_breakdown",
]
