"""Failure-campaign study: strategies under field-like random failures.

The paper motivates the whole line of work with production failure data
("node failures happened every 4.2 hours" on Blue Waters); its evaluation
then uses single controlled failures.  This extension closes the loop:
run the same Heatdis job under memoryless (exponential) per-rank failures
and compare relaunch-based vs Fenix-based recovery over a whole campaign
of failures rather than one.

The headline quantity is *efficiency*: ideal (failure-free, no-resilience)
wall time divided by achieved wall time.

Campaign cells are independent simulations, so the strategy sweep runs
through :mod:`repro.parallel` -- fan out over worker processes with
``jobs``, skip unchanged cells with the run cache -- with results
bit-identical to a sequential in-process run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness import RunReport
from repro.parallel import (
    CampaignProgress,
    CellResult,
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


@dataclass
class CampaignResult:
    strategy: str
    report: RunReport
    failures: int

    @property
    def wall_time(self) -> float:
        return self.report.wall_time


@dataclass
class CampaignStudy:
    ideal_wall: float
    results: List[CampaignResult]

    def _lookup(self, strategy: str) -> CampaignResult:
        for r in self.results:
            if r.strategy == strategy:
                return r
        known = sorted(r.strategy for r in self.results)
        raise KeyError(
            f"unknown strategy {strategy!r}; this study ran {known}"
        )

    def efficiency(self, strategy: str) -> float:
        return self.ideal_wall / self._lookup(strategy).wall_time

    def result(self, strategy: str) -> CampaignResult:
        return self._lookup(strategy)


def _baselines_then_grid(
    scales: Sequence[int],
    strategies: Sequence[str],
    seeds: Sequence[int],
    label: Callable[[str, int, Optional[int]], str],
    *,
    n_iters: int,
    ckpt_interval: int,
    mtbf_per_rank: Optional[float],
    max_failures: int,
    n_spares: int,
    jobs: int,
    cache: Optional[RunCache],
    progress: Optional[CampaignProgress],
    **observe: Any,
) -> Tuple[Dict[int, CellResult], Dict[int, float],
           List[Tuple[int, CellResult]]]:
    """The pass under both drivers: per scale the failure-free ``none``
    cell first -- the efficiency baseline and, when ``mtbf_per_rank`` is
    None, the calibrator that makes about ``max_failures`` failures
    strike during the job -- then the (scale x strategy x seed) failure
    grid in one parallel batch.  Returns the ideal result and the MTBF
    per scale, and the grid as ``(seed, result)`` pairs.

    Every cell, baselines included, goes through
    :func:`~repro.parallel.run_cells` with the shared ``cache`` and
    ``progress``, so a progress stream's cell count reconciles with what
    the caller folds.  ``observe`` is handed to :class:`~repro.parallel
    .CellSpec` as given: an observer field added there needs no edit here.
    """
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
            label=label(strategy, n_ranks, seed),
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
    return ideals, mtbf, [(seed, res)
                          for (seed, _), res in zip(grid, executed)]


def run_campaign(
    n_ranks: int = 8,
    mtbf_per_rank: Optional[float] = None,
    n_iters: int = 120,
    seed: int = 7,
    strategies: Optional[List[str]] = None,
    n_spares: int = 4,
    max_failures: int = 3,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
    **observe: Any,
) -> CampaignStudy:
    """Run the campaign; by default the MTBF is chosen so a handful of
    failures strike during the job.

    ``jobs`` fans the strategy cells out across worker processes;
    ``cache`` (a :class:`~repro.parallel.RunCache`) skips cells whose
    (config, seed, code) content address already has a stored report.
    ``observe`` is any observer field of :class:`~repro.parallel
    .CellSpec` (``telemetry``, ``rules``, ``determinism_audit``,
    ``trace_max_records`` -- telemetered cells
    default to Trace ring-buffer mode so long sweeps keep bounded
    memory).
    """
    ideals, _mtbf, grid = _baselines_then_grid(
        (n_ranks,), strategies or DEFAULT_STRATEGIES, (seed,),
        lambda strategy, _n_ranks, _seed: strategy,
        n_iters=n_iters, ckpt_interval=CKPT_INTERVAL,
        mtbf_per_rank=mtbf_per_rank, max_failures=max_failures,
        n_spares=n_spares, jobs=jobs, cache=cache, progress=progress,
        **observe,
    )
    return CampaignStudy(
        ideal_wall=ideals[n_ranks].report.wall_time,
        results=[
            CampaignResult(strategy=res.spec.strategy, report=res.report,
                           failures=res.failures)
            for _seed, res in grid
        ],
    )


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
    """The cross-run campaign: (strategy x scale x seed) under random
    failures, folded into a :class:`~repro.report.CampaignLedger`
    (baselines included, as seed 0).  ``observe`` as in
    :func:`run_campaign`.
    """
    from repro.report.ledger import CampaignLedger, RunRecord

    strategies = list(strategies or DEFAULT_STRATEGIES)
    scales = list(scales)
    seeds = list(seeds)

    ledger = CampaignLedger(meta={
        "app": "heatdis",
        "n_iters": n_iters,
        "ckpt_interval": ckpt_interval,
        "strategies": strategies,
        "scales": scales,
        "seeds": seeds,
        "max_failures": max_failures,
    })
    ideals, mtbf, grid = _baselines_then_grid(
        scales, strategies, seeds,
        lambda strategy, n_ranks, seed: f"{strategy}/r{n_ranks}" + (
            "" if seed is None else f"/s{seed}"),
        n_iters=n_iters, ckpt_interval=ckpt_interval,
        mtbf_per_rank=mtbf_per_rank, max_failures=max_failures,
        n_spares=n_spares, jobs=jobs, cache=cache, progress=progress,
        **observe,
    )
    for n_ranks, res in ideals.items():
        ledger.add_ideal(n_ranks, res.report.wall_time)
        ledger.add_run(RunRecord.from_cell_result(res, seed=0))
    for seed, res in grid:
        ledger.add_run(RunRecord.from_cell_result(res, seed=seed))

    ledger.meta["mtbf_per_rank"] = mtbf[scales[0]]
    ledger.progress = {
        "cells": ledger.cells(),
        "cache_hits": sum(1 for r in ledger.runs if r.cached),
        "cache_misses": sum(1 for r in ledger.runs if not r.cached),
        "jobs": jobs,
    }
    return ledger


def format_campaign(study: CampaignStudy) -> str:
    lines = [
        "Failure campaign: exponential per-rank failures "
        "(Blue-Waters-style MTBF model)",
        f"  ideal (no failures, no resilience): {study.ideal_wall:8.2f} s",
        "  strategy         wall(s)  failures  attempts  efficiency",
    ]
    for r in study.results:
        lines.append(
            f"  {r.strategy:<15} {r.wall_time:8.2f}  {r.failures:8d}  "
            f"{r.report.attempts:8d}  {study.ideal_wall / r.wall_time:9.1%}"
        )
    return "\n".join(lines)
