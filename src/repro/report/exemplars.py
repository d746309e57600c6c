"""Exemplar instrumented runs for the HTML report.

Campaign cells run in worker processes and hand back only aggregate
reports -- the span stream never crosses the pool boundary.  For the
report's embedded recovery walk and flame stacks we therefore run
*one* representative seeded-kill job per strategy in-process with full
telemetry, and embed its artifacts verbatim.  Deliberately small (a few
hundred simulated seconds) so report generation stays interactive.
"""

from __future__ import annotations

from typing import Dict, Sequence


def collect_exemplars(
    strategies: Sequence[str],
    n_ranks: int = 4,
    n_iters: int = 30,
    ckpt_interval: int = 10,
    kill_rank: int = 2,
    n_spares: int = 1,
    seed: int = 20220906,
) -> Dict[str, Dict[str, str]]:
    """``{strategy: {"timeline": the recovery walk, "folded": text}}``
    for each strategy that can recover from a mid-run kill (``none`` is
    skipped: a job with no resilience has no recovery story to show)."""
    from repro.cli import build_job
    from repro.harness.strategies import STRATEGIES
    from repro.monitor.explain import explain_failure
    from repro.monitor.trace_io import trace_meta
    from repro.profile.flamegraph import folded_stacks, format_folded
    from repro.telemetry import Telemetry

    out: Dict[str, Dict[str, str]] = {}
    for strategy in strategies:
        if strategy not in STRATEGIES or strategy == "none":
            continue
        tel = Telemetry(enabled=True)
        # clamped: a campaign at 2 ranks still gets a kill that can fire
        job = build_job(
            "heatdis", strategy, n_ranks, n_iters, ckpt_interval, n_spares,
            min(kill_rank, n_ranks - 1), seed=seed,
            modeled_bytes_per_rank=16e6)
        job(telemetry=tel)
        out[strategy] = {
            "timeline": explain_failure(tel.trace, trace_meta(tel.trace)),
            "folded": format_folded(folded_stacks(tel)),
        }
    return out
