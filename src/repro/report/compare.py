"""The one budget gate: did this run get worse than that one?

``python -m repro report diff BASELINE CURRENT [--budget R]`` reads any
saved run document.  :func:`read_document` recognises it by its
top-level key and flattens it to ``{row: value}``; its :class:`Kind`
fixes the way a row gets worse, the default budget and the noise floor:

=====================  =======================  =============  ======
document               recognised by            bad direction  budget
=====================  =======================  =============  ======
scorecard or ledger    ``strategies``/``runs``  per metric     0.10
profile ledger         ``mean``                 up             0.05
telemetry metrics      ``merged``               either         0
=====================  =======================  =============  ======

One arithmetic serves every kind: a row's move in its bad direction,
relative to ``|baseline|`` (:func:`relative_move`).  A row present on
one side only always fails -- a strategy, category or counter silently
vanishing is a structural change, not noise.  Profile categories under
:data:`FLOOR` seconds in both ledgers are not compared.

Exit codes are :mod:`repro.cli`'s: 0 within budget, 1 a row past it,
2 an unreadable document or two documents of different kinds.  The gate
reads saved files only: it imports nothing of the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple)

from repro.cli import EXIT_OK, EXIT_REGRESSION, load_json
from repro.report.ledger import (
    CampaignLedger,
    build_scorecard,
    flatten_scorecard,
    metric_direction,
)
from repro.util.errors import ConfigError

#: seconds under which a profile category, in both ledgers, is noise in
#: the last digits rather than a cost that could regress
FLOOR = 1e-3


@dataclass(frozen=True)
class Kind:
    """A kind of run document and how its rows are judged."""

    name: str
    #: top-level keys that recognise the kind (any one suffices)
    keys: Tuple[str, ...]
    #: the document -> its ``{row: value}`` map
    rows: Callable[[Dict[str, Any]], Mapping[str, Any]]
    #: a row -> its bad direction: "up", "down" or "either"
    direction: Callable[[str], str]
    budget: float
    floor: float = 0.0


def _scorecard_rows(doc: Dict[str, Any]) -> Dict[str, float]:
    if "strategies" not in doc:  # a campaign ledger: score it first
        doc = build_scorecard(CampaignLedger.from_dict(doc))
    return flatten_scorecard(doc)


def _metrics_rows(doc: Dict[str, Any]) -> Dict[str, float]:
    """Counter totals, gauge highs and histogram counts and totals of a
    ``metrics.json``'s job-wide (merged) view."""
    merged = doc["merged"]
    rows = {f"counter:{name}": value
            for name, value in merged.get("counters", {}).items()}
    for name, g in merged.get("gauges", {}).items():
        rows[f"gauge:{name}.high"] = g["high"]
    for name, h in merged.get("histograms", {}).items():
        rows[f"histogram:{name}.count"] = h["count"]
        rows[f"histogram:{name}.total"] = h["total"]
    return rows


#: simulated scorecards are deterministic: 10% headroom forgives only
#: intentional small model adjustments, not behaviour changes
SCORECARD = Kind("scorecard", ("strategies", "runs"), _scorecard_rows,
                 metric_direction, budget=0.10)
#: a profile ledger's per-category mean seconds: only growth costs
PROFILE_LEDGER = Kind("profile ledger", ("mean",), lambda doc: doc["mean"],
                      lambda _row: "up", budget=0.05, floor=FLOOR)
#: telemetry counters of a deterministic simulation: any drift is news
METRICS = Kind("telemetry metrics", ("merged",), _metrics_rows,
               lambda _row: "either", budget=0.0)
KINDS = (SCORECARD, PROFILE_LEDGER, METRICS)


def read_document(path: str) -> Tuple[Kind, Dict[str, float]]:
    """The kind of the run document in ``path`` and its rows.  A file
    of no known kind, or one whose rows cannot be read, is bad input."""
    doc = load_json(path)
    kind = next((k for k in KINDS if any(key in doc for key in k.keys)),
                None)
    if kind is None:
        raise ConfigError(
            f"cannot load {path}: not a scorecard, campaign ledger, "
            "profile ledger or telemetry metrics document")
    try:
        return kind, {row: float(value)
                      for row, value in kind.rows(doc).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"cannot load {path}: not a usable {kind.name}: {exc}") from exc


def relative_move(baseline: float, current: float,
                  direction: str = "up") -> float:
    """How far ``current`` moved from ``baseline`` in ``direction``,
    relative to ``|baseline|``: positive is worse.  A zero baseline that
    moved that way gives +inf; ``"up"`` is the plain signed change."""
    change = current - baseline
    if baseline != 0.0:
        change /= abs(baseline)
    elif change != 0.0:
        change = math.copysign(math.inf, change)
    if direction == "up":
        return change
    if direction == "down":
        return -change
    if direction == "either":
        return abs(change)
    raise ValueError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class Delta:
    """One row whose values differ; ``None`` marks the side it is
    absent from."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    over: bool = False

    @property
    def structural(self) -> bool:
        return self.baseline is None or self.current is None


def diff_rows(kind: Kind, baseline: Mapping[str, float],
              current: Mapping[str, float], budget: float) -> List[Delta]:
    """The rows whose values differ, sorted, each marked ``over`` when
    it moved past ``budget`` in its bad direction or is one-sided."""
    rows = []
    for name in sorted(set(baseline) | set(current)):
        b, c = baseline.get(name), current.get(name)
        if b == c or max(abs(b or 0.0), abs(c or 0.0)) < kind.floor:
            continue
        over = (b is None or c is None
                or relative_move(b, c, kind.direction(name)) > budget)
        rows.append(Delta(name, b, c, over))
    return rows


def format_deltas(rows: Sequence[Delta]) -> List[str]:
    """Aligned per-row lines, failures marked ``OVER-BUDGET``."""
    width = max((len(d.name) for d in rows), default=0)

    def fmt(v: Optional[float]) -> str:
        return "absent" if v is None else f"{v:.6g}"

    lines = []
    for d in rows:
        change = ("structural" if d.structural
                  else f"{relative_move(d.baseline, d.current):+.1%}")
        marker = "  OVER-BUDGET" if d.over else ""
        lines.append(f"{d.name:<{width}}  {fmt(d.baseline)} -> "
                     f"{fmt(d.current)}  ({change}){marker}")
    return lines


def budget_verdict(rows: Sequence[Delta], budget: float,
                   kind: Kind) -> Tuple[int, str]:
    """(exit code, the one verdict line)."""
    failing = [d.name for d in rows if d.over]
    if failing:
        return (EXIT_REGRESSION,
                f"{kind.name}: {len(failing)} row(s) beyond the "
                f"{budget:g} budget: {', '.join(failing)}")
    return EXIT_OK, f"{kind.name}: all rows within the {budget:g} budget"
