"""Per-layer overhead attribution across the Figure-5 strategies.

Runs one small seeded failure scenario under every strategy with the
profiler on and tabulates the mean per-rank ledger -- the "where do the
resilience seconds go" companion to Figure 5's wall-clock bars.  Unlike
the TimeAccount buckets the figures use, these columns come from the
exact span-stream attribution (:mod:`repro.profile.ledger`), so the
conservation invariant (columns sum to the mean makespan) holds for
every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cli import build_job
from repro.harness.strategies import STRATEGIES
from repro.profile.categories import CATEGORIES
from repro.telemetry import Telemetry
from repro.util.units import format_table

#: strategies rows appear in (the Figure-5 order)
DEFAULT_STRATEGIES = (
    "none",
    "veloc",
    "kr_veloc",
    "fenix_veloc",
    "fenix_kr_veloc",
    "fenix_kr_imr",
)


@dataclass(frozen=True)
class OverheadRow:
    """One strategy's mean per-rank ledger."""

    strategy: str
    wall_time: float
    mean_makespan: float
    mean: Dict[str, float]
    dropped: int


def run_overhead_attribution(
    n_ranks: int = 4,
    n_iters: int = 30,
    ckpt_interval: int = 10,
    modeled_bytes: float = 16e6,
    kill_rank: Optional[int] = 2,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    seed: int = 20220906,
) -> List[OverheadRow]:
    """Profile each strategy on the same seeded single-failure scenario.

    The failure-free ``none`` strategy keeps its NoFailures plan (there
    is no recovery path to attribute), every other strategy gets one
    kill between checkpoints -- the paper's injection protocol.
    """
    rows: List[OverheadRow] = []
    for name in strategies:
        kill = kill_rank if STRATEGIES[name].checkpointing else None
        job = build_job(
            "heatdis", name, n_ranks, n_iters, ckpt_interval,
            kill_rank=kill, seed=seed, modeled_bytes_per_rank=modeled_bytes)
        report = job(telemetry=Telemetry(enabled=True), profile=True)
        prof = report.profile
        rows.append(OverheadRow(
            strategy=name,
            wall_time=report.wall_time,
            mean_makespan=prof["mean_makespan"],
            mean=dict(prof["mean"]),
            dropped=int(prof["dropped"]),
        ))
    return rows


def format_overhead_table(rows: Sequence[OverheadRow],
                          title: str = "Per-layer cost attribution "
                                       "(mean seconds per rank)") -> str:
    """Aligned text table; only categories some row actually spent."""
    cats = [c for c in CATEGORIES
            if any(r.mean.get(c, 0.0) > 1e-12 for r in rows)]
    header = ["strategy"] + cats + ["makespan", "wall"]
    table: List[List[str]] = []
    for r in rows:
        table.append([r.strategy]
                     + [f"{r.mean.get(c, 0.0):.4f}" for c in cats]
                     + [f"{r.mean_makespan:.4f}", f"{r.wall_time:.4f}"])
    lines = [title] + format_table(header, table, rule=True)
    dropped = sum(r.dropped for r in rows)
    if dropped:
        lines.append(f"WARNING: {dropped} trace records dropped across "
                     "rows -- attribution may be incomplete")
    return "\n".join(lines)
