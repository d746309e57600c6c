"""Experiment harness: strategies, job runner, time accounting, reports.

This package is the measurement methodology of Section VI-C in code:

- :mod:`repro.harness.strategies` -- the resilience configurations of
  Figure 5 (VeloC alone, KR+VeloC, Fenix+KR+VeloC, Fenix-IMR,
  partial-rollback, and the manual Fenix+VeloC reference);
- :mod:`repro.harness.runner` -- :func:`run_job`, the one front door
  (any application registered in :data:`repro.apps.APPS`, any strategy,
  any observers), runs one job to completion, including
  the relaunch loop for non-Fenix strategies (teardown + new world on the
  same cluster, PFS contents surviving) and the ``time mpirun``-equivalent
  wall-clock measurement;
- :mod:`repro.harness.recompute` -- high-watermark instrumentation that
  classifies re-executed iterations as "Recompute";
- :mod:`repro.harness.report` -- per-category aggregation with the
  paper's "Other" definition (job wall time minus in-app accounted time).
"""

from repro.harness.interval import daly_interval, expected_runtime, young_interval
from repro.harness.recompute import RecomputeTracker
from repro.harness.strategies import STRATEGIES, StrategySpec
from repro.harness.runner import (
    ExperimentEnv,
    JobCosts,
    RunReport,
    run_job,
    run_heatdis_job,
    run_minimd_job,
)
from repro.harness.report import format_report_table, summarize_categories

__all__ = [
    "RecomputeTracker",
    "STRATEGIES",
    "StrategySpec",
    "ExperimentEnv",
    "JobCosts",
    "RunReport",
    "run_job",
    "run_heatdis_job",
    "run_minimd_job",
    "format_report_table",
    "summarize_categories",
    "young_interval",
    "daly_interval",
    "expected_runtime",
]
