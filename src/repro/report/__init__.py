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
- :mod:`repro.report.compare` -- the one budget gate: it recognises a
  saved scorecard, campaign ledger, profile ledger or telemetry metrics
  document, and judges two of a kind with one arithmetic;
- ``python -m repro.report`` -- run a seeded campaign, render the
  report, print the scorecard, or gate two run documents in CI.
"""

from repro.report.compare import (
    KINDS,
    Delta,
    Kind,
    budget_verdict,
    diff_rows,
    format_deltas,
    read_document,
    relative_move,
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
)
from repro.report.stats import bootstrap_ci, summarize

__all__ = [
    "CampaignLedger",
    "RunRecord",
    "LEDGER_SCHEMA",
    "build_scorecard",
    "flatten_scorecard",
    "format_scorecard",
    "flag_anomalies",
    "render_html",
    "bootstrap_ci",
    "summarize",
    "KINDS",
    "Kind",
    "Delta",
    "read_document",
    "relative_move",
    "diff_rows",
    "format_deltas",
    "budget_verdict",
]
