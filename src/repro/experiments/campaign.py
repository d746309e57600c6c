"""Failure-campaign study: strategies under field-like random failures.

The paper motivates the whole line of work with production failure data
("node failures happened every 4.2 hours" on Blue Waters); its evaluation
then uses single controlled failures.  This extension closes the loop:
run the same Heatdis job under memoryless (exponential) per-rank failures
and compare relaunch-based vs Fenix-based recovery over a whole campaign
of failures rather than one.

The headline quantity is *efficiency*: ideal (failure-free, no-resilience)
wall time divided by achieved wall time (``RunRecord.efficiency``).

:func:`run_campaign_grid` is the one campaign engine: its ledger is what
``repro.report run`` scores and what :func:`campaign_table` renders as
``results/campaign.txt``.  Cells run through :mod:`repro.parallel`
(``jobs`` worker processes, the run cache), bit-identical to a
sequential in-process run.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional, Sequence

from repro.apps import HeatdisConfig
from repro.experiments.common import paper_env
from repro.parallel import (
    CampaignProgress,
    CellSpec,
    PlanSpec,
    RunCache,
    run_cells,
)

CKPT_INTERVAL = 9

DEFAULT_STRATEGIES = ["kr_veloc", "fenix_kr_veloc"]

#: default seed set for cross-run campaigns (repro.report); enough for a
#: meaningful bootstrap without making the smoke campaign slow
DEFAULT_SEEDS = (7, 11, 13)


def run_campaign_grid(
    scales: Sequence[int] = (8,),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    strategies: Optional[Sequence[str]] = None,
    n_iters: int = 120,
    mtbf_per_rank: Optional[float] = None,
    max_failures: int = 3,
    n_spares: int = 4,
    ckpt_interval: int = CKPT_INTERVAL,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
    **observe: Any,
):
    """(strategy x scale x seed) under random failures, folded into a
    :class:`~repro.report.CampaignLedger`.

    Per scale the failure-free ``none`` cell runs first: the efficiency
    baseline (``ledger.ideal``; its record is seed 0) and, when
    ``mtbf_per_rank`` is None, the calibrator that makes about
    ``max_failures`` failures strike during the job.  Then the failure
    grid runs in one batch.  Every cell goes through
    :func:`~repro.parallel.run_cells` with the shared ``cache`` and
    ``progress``, so a progress stream's cell count reconciles with the
    ledger.  ``observe`` is handed to :class:`~repro.parallel.CellSpec`
    as given: an observer field added there needs no edit here.
    """
    from repro.report.ledger import CampaignLedger, RunRecord

    strategies = list(strategies or DEFAULT_STRATEGIES)
    scales = list(scales)
    seeds = list(seeds)
    cfg = HeatdisConfig(
        local_rows=8, cols=16, modeled_bytes_per_rank=256e6,
        n_iters=n_iters, work_multiplier=2000.0,
    )

    def cell(strategy: str, n_ranks: int, plan: PlanSpec, spares: int,
             seed: Optional[int] = None) -> CellSpec:
        return CellSpec(
            app="heatdis",
            strategy=strategy,
            n_ranks=n_ranks,
            config=cfg,
            ckpt_interval=ckpt_interval,
            env=paper_env(n_ranks + n_spares, n_spares=spares,
                          pfs_servers=1),
            plan=plan,
            label=f"{strategy}/r{n_ranks}" + (
                "" if seed is None else f"/s{seed}"),
            **observe,
        )

    run = partial(run_cells, jobs=jobs, cache=cache, progress=progress)
    ideals = dict(zip(scales, run(
        [cell("none", n_ranks, PlanSpec.none(), 1) for n_ranks in scales])))
    mtbf = {
        n_ranks: (mtbf_per_rank if mtbf_per_rank is not None
                  else res.report.wall_time * n_ranks / max_failures)
        for n_ranks, res in ideals.items()
    }
    grid = [
        (seed, cell(strategy, n_ranks,
                    PlanSpec.exponential(mtbf[n_ranks], seed=seed,
                                         max_failures=max_failures),
                    n_spares, seed))
        for n_ranks in scales for strategy in strategies for seed in seeds
    ]
    executed = run([spec for _, spec in grid])

    ledger = CampaignLedger(meta={
        "app": "heatdis",
        "n_iters": n_iters,
        "ckpt_interval": ckpt_interval,
        "strategies": strategies,
        "scales": scales,
        "seeds": seeds,
        "max_failures": max_failures,
        "mtbf_per_rank": mtbf[scales[0]],
    })
    for n_ranks, res in ideals.items():
        ledger.add_ideal(n_ranks, res.report.wall_time)
        ledger.add_run(RunRecord.from_cell_result(res, seed=0))
    for (seed, _), res in zip(grid, executed):
        ledger.add_run(RunRecord.from_cell_result(res, seed=seed))
    ledger.progress = {
        "cells": ledger.cells(),
        "cache_hits": sum(1 for r in ledger.runs if r.cached),
        "cache_misses": sum(1 for r in ledger.runs if not r.cached),
        "jobs": jobs,
    }
    return ledger


def campaign_table(ledger) -> str:
    """``results/campaign.txt``: a one-scale ledger's failure-grid runs
    (every record but the ``none`` baseline, as ``CampaignLedger
    .strategies`` counts them, in grid order) against its ideal."""
    (n_ranks,) = ledger.ideal
    ideal = ledger.ideal_for(n_ranks)
    lines = [
        "Failure campaign: exponential per-rank failures "
        "(Blue-Waters-style MTBF model)",
        f"  ideal (no failures, no resilience): {ideal:8.2f} s",
        "  strategy         wall(s)  failures  attempts  efficiency",
    ]
    for r in ledger.runs:
        if r.strategy == "none":
            continue
        lines.append(
            f"  {r.strategy:<15} {r.wall_time:8.2f}  {r.failures:8d}  "
            f"{r.attempts:8d}  {r.efficiency(ideal):9.1%}"
        )
    return "\n".join(lines)
