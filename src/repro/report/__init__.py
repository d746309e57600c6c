"""Cross-run campaign observability: scorecards, HTML reports, diffs.

The per-run layers (``repro.telemetry`` spans, ``repro.monitor``
invariants, ``repro.profile`` ledgers) stop at a single
:class:`~repro.harness.RunReport`; this package is the *distribution*
lens over a whole campaign:

- :mod:`repro.report.ledger` -- :class:`CampaignLedger` folds the
  per-run stream into per-(strategy, scale, seed) records, builds the
  resilience scorecard (recovery latency, overhead %, recompute
  fraction, checkpoint cost) with bootstrap CIs, and flags anomalies;
- :mod:`repro.report.stats` -- deterministic summary statistics and
  seeded bootstrap confidence intervals;
- :mod:`repro.report.html` -- the self-contained HTML report (inline
  CSS/SVG, embedded recovery walks and flame stacks, zero external
  assets);
- :mod:`repro.report.compare` -- the one comparison helper every diff
  CLI (telemetry / profile / report) routes through: shared
  ``--budget``/``--tolerance`` flags and exit codes;
- ``python -m repro.report`` -- run a seeded campaign, render the
  report, print the scorecard, or gate two ledgers in CI.
"""

from repro.report.compare import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_REGRESSION,
    Delta,
    add_budget_flag,
    budget_verdict,
    compare_scalars,
    format_deltas,
    over_budget,
    relative_change,
)
from repro.report.html import render_html
from repro.report.ledger import (
    LEDGER_SCHEMA,
    CampaignLedger,
    RunRecord,
    build_scorecard,
    flag_anomalies,
    flatten_scorecard,
    format_scorecard,
    scorecard_regressions,
)
from repro.report.stats import bootstrap_ci, summarize

__all__ = [
    "CampaignLedger",
    "RunRecord",
    "LEDGER_SCHEMA",
    "build_scorecard",
    "flatten_scorecard",
    "format_scorecard",
    "scorecard_regressions",
    "flag_anomalies",
    "render_html",
    "bootstrap_ci",
    "summarize",
    "Delta",
    "relative_change",
    "compare_scalars",
    "over_budget",
    "format_deltas",
    "budget_verdict",
    "add_budget_flag",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_BAD_INPUT",
]
