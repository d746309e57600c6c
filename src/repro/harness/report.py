"""Report formatting: the paper's stacked-bar categories as text tables,
plus machine-readable JSON export for downstream plotting."""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.harness.runner import RunReport
from repro.util.units import format_table

#: display order of Figure 5's categories
HEATDIS_CATEGORIES = [
    "app_compute",
    "app_mpi",
    "resilience_init",
    "checkpoint_function",
    "data_recovery",
    "recompute",
    "other",
]

#: display order of Figure 6's categories
MINIMD_CATEGORIES = [
    "force_compute",
    "neighboring",
    "communicator",
    "checkpoint_function",
    "data_recovery",
    "other",
]

#: ledger category -> Figure-5 display category.  Detection, ULFM
#: agreement, Fenix repair and idle time are outside the application's
#: accounted buckets in the paper's methodology, so they fold to
#: ``other`` alongside the launch/teardown time the ledger never sees.
_LEDGER_TO_HEATDIS = {
    "compute": "app_compute",
    "flush_congestion": "app_compute",
    "app_mpi_wait": "app_mpi",
    "resilience_init": "resilience_init",
    "checkpoint_copy": "checkpoint_function",
    "kr_reset_restore": "data_recovery",
    "veloc_recover": "data_recovery",
    "recompute": "recompute",
    "failure_detection": "other",
    "ulfm_agreement": "other",
    "fenix_repair": "other",
    "idle": "other",
}


def summarize_categories(
    report: RunReport, categories: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Collapse a report onto the requested display categories.

    When the run carried a profile ledger (``profile=True``), the summary
    is built from the exact per-rank attribution: every ledger category
    maps onto one display category, and time the application never saw
    (launch, teardown, repair waits) is ``wall_time - mean_makespan`` --
    so the row sums to the wall time by construction, which is asserted
    rather than assumed.

    Without a ledger, buckets not named in ``categories`` are folded into
    ``other`` so the summary still adds up to the wall time (legacy
    TimeAccount path, used by the untelemetered sweep runs).
    """
    cats = list(categories) if categories is not None else HEATDIS_CATEGORIES
    ledger = report.profile
    if (ledger is not None and "other" in cats
            and all(c in set(_LEDGER_TO_HEATDIS.values()) for c in cats)):
        mean = ledger["mean"]
        row = {c: 0.0 for c in cats}
        for lcat, seconds in mean.items():
            row[_LEDGER_TO_HEATDIS.get(lcat, "other")] += seconds
        # time outside every rank's observed makespan: launch/teardown
        row["other"] += max(0.0, report.wall_time - ledger["mean_makespan"])
        total = sum(row.values())
        assert abs(total - report.wall_time) <= 1e-6 * max(
            1.0, report.wall_time
        ), (
            f"ledger summary ({total!r}) does not conserve the wall time "
            f"({report.wall_time!r})"
        )
        return row
    row = {c: report.category(c) for c in cats if c != "other"}
    named = sum(row.values())
    row["other"] = max(0.0, report.wall_time - named)
    return row


def report_to_dict(report: RunReport) -> Dict:
    """A JSON-serializable summary of one run (results payload omitted)."""
    out = {
        "strategy": report.strategy,
        "app": report.app,
        "n_ranks": report.n_ranks,
        "wall_time": report.wall_time,
        "attempts": report.attempts,
        "failures": report.failures,
        "buckets": dict(report.buckets),
        "other": report.other,
    }
    if report.telemetry is not None:
        out["telemetry"] = report.telemetry
    if report.profile is not None:
        out["profile"] = report.profile
    return out


def reports_to_json(reports: Iterable[RunReport], indent: int = 2) -> str:
    """Serialize reports for external plotting/analysis tools."""
    return json.dumps([report_to_dict(r) for r in reports], indent=indent)


def format_report_table(
    reports: Iterable[RunReport],
    categories: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render reports as an aligned text table (one row per report)."""
    reports = list(reports)
    if not reports:
        return "(no data)"
    cats = list(categories) if categories is not None else HEATDIS_CATEGORIES
    header = ["strategy", "ranks"] + cats + ["wall"]
    rows: List[List[str]] = []
    for rep in reports:
        summary = summarize_categories(rep, cats)
        rows.append(
            [rep.strategy, str(rep.n_ranks)]
            + [f"{summary.get(c, 0.0):.3f}" for c in cats]
            + [f"{rep.wall_time:.3f}"]
        )
    lines = [title] if title else []
    return "\n".join(lines + format_table(header, rows, rule=True))
