"""One comparison helper for every diff CLI.

``python -m repro.telemetry diff`` (``--tolerance``, symmetric),
``python -m repro.profile diff`` (``--budget``, growth-only) and
``python -m repro.report diff`` (scorecard regressions) historically
each rolled their own relative-delta arithmetic, flag names and exit
codes.  They now share this module:

- **flags**: every diff accepts ``--budget`` and ``--tolerance`` as
  aliases for the same threshold;
- **exit codes**: 0 = within budget, 1 = regression past budget,
  2 = inputs unreadable/malformed;
- **arithmetic**: :func:`relative_change` with an explicit mode --
  ``"symmetric"`` (|a-b| over the larger magnitude: drift in either
  direction counts) or ``"growth"`` ((cur-base)/base: only increases
  count, the overhead-budget semantics).

A metric present on only one side is always a failure (structural
difference, not noise) unless both values fall under ``abs_floor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_REGRESSION  # noqa: F401

#: comparison modes
MODES = ("symmetric", "growth")


@dataclass(frozen=True)
class Delta:
    """One compared metric; ``None`` marks a side where it is absent."""

    name: str
    baseline: Optional[float]
    current: Optional[float]

    @property
    def structural(self) -> bool:
        return self.baseline is None or self.current is None


def relative_change(
    baseline: float, current: float, mode: str = "growth"
) -> float:
    """The relative delta under ``mode`` (see module docstring).

    Both modes return 0.0 for two zeros and +inf when a zero baseline
    grows, so thresholds behave identically at the edges.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "symmetric":
        scale = max(abs(baseline), abs(current))
        if scale == 0.0:
            return 0.0
        return abs(current - baseline) / scale
    if baseline == 0.0:
        return float("inf") if current > 0.0 else 0.0
    return (current - baseline) / baseline


def compare_scalars(
    baseline: Mapping[str, float],
    current: Mapping[str, float],
    keys: Optional[Sequence[str]] = None,
) -> List[Delta]:
    """Pair up two flat scalar maps (union of keys, sorted, or ``keys``
    in the given order)."""
    names = list(keys) if keys is not None else sorted(
        set(baseline) | set(current)
    )
    out = []
    for name in names:
        b = baseline.get(name)
        c = current.get(name)
        out.append(Delta(name,
                         None if b is None else float(b),
                         None if c is None else float(c)))
    return out


def over_budget(
    deltas: Sequence[Delta],
    budget: float,
    mode: str = "growth",
    abs_floor: float = 0.0,
) -> List[Delta]:
    """The deltas that fail the budget.

    ``abs_floor`` suppresses metrics tiny on *both* sides (noise in the
    last digits of a near-zero category must not fail CI).
    """
    failing = []
    for d in deltas:
        b = d.baseline if d.baseline is not None else 0.0
        c = d.current if d.current is not None else 0.0
        if abs(b) < abs_floor and abs(c) < abs_floor:
            continue
        if d.structural:
            failing.append(d)
            continue
        if relative_change(b, c, mode=mode) > budget:
            failing.append(d)
    return failing


def format_deltas(
    deltas: Sequence[Delta],
    failing: Sequence[Delta],
    mode: str = "growth",
    value_format: str = "{:g}",
) -> List[str]:
    """Aligned per-metric lines, failures marked ``OVER-BUDGET``."""
    if not deltas:
        return []
    bad = {d.name for d in failing}
    width = max(len(d.name) for d in deltas)

    def fmt(v: Optional[float]) -> str:
        return "absent" if v is None else value_format.format(v)

    lines = []
    for d in deltas:
        if d.structural:
            change = "structural"
        else:
            rel = relative_change(d.baseline, d.current, mode=mode)
            change = f"{rel:+.1%}" if mode == "growth" else f"{rel:.1%}"
        marker = "  OVER-BUDGET" if d.name in bad else ""
        lines.append(f"{d.name:<{width}}  {fmt(d.baseline)} -> "
                     f"{fmt(d.current)}  ({change}){marker}")
    return lines


def budget_verdict(
    failing: Sequence[Delta], budget: float, what: str = "metric"
) -> Tuple[int, str]:
    """(exit code, summary line) with the shared wording."""
    if failing:
        names = ", ".join(d.name for d in failing)
        return (
            EXIT_REGRESSION,
            f"{len(failing)} {what}(s) beyond the {budget:g} budget: {names}",
        )
    return EXIT_OK, f"all {what}s within the {budget:g} budget"


def add_budget_flag(parser, default: float, help_text: str) -> None:
    """Register the unified ``--budget``/``--tolerance`` alias pair on an
    argparse parser (both store to ``args.budget``)."""
    parser.add_argument("--budget", "--tolerance", dest="budget",
                        type=float, default=default, metavar="REL",
                        help=help_text)
