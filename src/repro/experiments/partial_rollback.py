"""Section VI-D2: partial rollback vs full rollback on convergence Heatdis.

"In our example of the heat distribution application iteratively lowering
the error, we see a nearly 2x speedup of recovery from just keeping the
in-progress data on surviving ranks."

Both configurations run the run-until-convergence Heatdis under
Fenix+KR+VeloC with the same mid-run failure; the only difference is the
recovery scope (``all`` restores every rank; ``recovered_only`` restores
just the replacement).  The comparison metric is the *recovery cost*:
extra wall time of the failing run over the clean run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.apps import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness import run_heatdis_job
from repro.parallel import CampaignProgress, parallel_map
from repro.sim import IterationFailure

N_MAX_ITERS = 2000
CKPT_INTERVAL = 60
CONVERGENCE = 1.0
WORK_MULTIPLIER = 200.0


@dataclass
class PartialRollbackResult:
    clean_wall: float
    full_rollback_wall: float
    partial_rollback_wall: float
    clean_iterations: int
    full_iterations: int
    partial_iterations: int

    @property
    def full_recovery_cost(self) -> float:
        return self.full_rollback_wall - self.clean_wall

    @property
    def partial_recovery_cost(self) -> float:
        return self.partial_rollback_wall - self.clean_wall

    @property
    def speedup(self) -> float:
        """Recovery-cost speedup of partial over full rollback."""
        if self.partial_recovery_cost <= 0:
            return float("inf")
        return self.full_recovery_cost / self.partial_recovery_cost


def _convergence_cfg(n_ranks: int) -> HeatdisConfig:
    # NOTE: Jacobi convergence slows with global grid height (rows^2), so
    # the real grid stays shallow as ranks grow; modelled size is separate.
    return HeatdisConfig(
        local_rows=max(2, 32 // n_ranks),
        cols=16,
        modeled_bytes_per_rank=256e6,
        n_iters=N_MAX_ITERS,
        convergence_threshold=CONVERGENCE,
        work_multiplier=WORK_MULTIPLIER,
    )


def _run_arm(arm: Tuple[str, bool, int]) -> Tuple[float, int]:
    """One run of the comparison, ``(strategy, killed, n_ranks)`` ->
    ``(wall, rank 0's iterations)``: module-level so pool workers can
    pickle it (the iteration count is a per-rank result, which the run
    cache does not keep).  The kill is rank 1's, 95% of the way from
    checkpoint 2 to 3."""
    strategy, killed, n_ranks = arm
    plan = IterationFailure.between_checkpoints(
        1, CKPT_INTERVAL, 2, fraction=0.95) if killed else None
    report = run_heatdis_job(paper_env(n_ranks + 1), strategy, n_ranks,
                             _convergence_cfg(n_ranks), CKPT_INTERVAL,
                             plan=plan)
    return report.wall_time, report.results[0]["iterations"]


def run_partial_rollback_comparison(
    n_ranks: int = 8,
    jobs: int = 1,
    progress: Optional[CampaignProgress] = None,
) -> PartialRollbackResult:
    (clean, clean_its), (full, full_its), (partial, partial_its) = \
        parallel_map(_run_arm, [("fenix_kr_veloc", False, n_ranks),
                                ("fenix_kr_veloc", True, n_ranks),
                                ("fenix_kr_partial", True, n_ranks)],
                     jobs=jobs, progress=progress)
    return PartialRollbackResult(clean, full, partial,
                                 clean_its, full_its, partial_its)


def format_partial_rollback(result: PartialRollbackResult) -> str:
    """``results/partial_rollback.txt``."""
    return "\n".join([
        "Section VI-D2: partial vs full rollback (convergence Heatdis)",
        f"  clean wall:            {result.clean_wall:8.2f} s "
        f"({result.clean_iterations} iterations)",
        f"  full-rollback wall:    {result.full_rollback_wall:8.2f} s "
        f"({result.full_iterations} iterations)",
        f"  partial-rollback wall: {result.partial_rollback_wall:8.2f} s "
        f"({result.partial_iterations} iterations)",
        f"  full recovery cost:    {result.full_recovery_cost:8.2f} s",
        f"  partial recovery cost: {result.partial_recovery_cost:8.2f} s",
        f"  recovery speedup:      {result.speedup:8.2f}x "
        "(paper: 'nearly 2x')",
    ])
