"""Figure 6: MiniMD resilience weak scaling.

Weak scaling over rank counts with the per-phase breakdown ("Force
Compute", "Neighboring", "Communicator"), the resilience categories, and
"Other"; plus the failure-run extra cost.  MiniMD's larger initialization
cost is what makes the Fenix savings in "Other" bigger than Heatdis's
(Section VI-D2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps import MiniMDConfig
from repro.experiments.common import (
    PairedCell,
    paired_specs,
    paper_env,
    run_paired_cells,
    with_app_init,
)
from repro.parallel import CampaignProgress, CellSpec, RunCache
from repro.util.units import format_table

FIG6_STRATEGIES = ["none", "kr_veloc", "fenix_kr_veloc"]

N_STEPS = 60
CKPT_INTERVAL = 9
FAIL_AFTER_CKPT = 4
WORK_MULTIPLIER = 600.0
RANK_COUNTS = [8, 27, 64]
#: MiniMD reads inputs and builds large structures at startup: a much
#: bigger init than Heatdis, which is the point of the comparison
MINIMD_APP_INIT = 4.0


@dataclass
class Fig6Cell(PairedCell):
    strategy: str
    n_ranks: int


def _md_cfg(n_ranks: int, jitter: float) -> MiniMDConfig:
    # weak scaling: the modelled per-rank atom count is held constant
    # (a 100^3 lattice per pair of ranks -> 2M atoms, ~96 MB of positions
    # per rank) as the rank count grows
    return MiniMDConfig(
        real_atoms_per_rank=24,
        problem_size=100,
        n_ranks_for_model=2,
        n_steps=N_STEPS,
        dt=0.003,
        neigh_every=6,
        compute_jitter=jitter,
        work_multiplier=WORK_MULTIPLIER,
    )


def _md_env(n_ranks: int, pfs_servers: int = 4):
    return with_app_init(
        paper_env(n_nodes=n_ranks + 1, pfs_servers=pfs_servers),
        MINIMD_APP_INIT)


def _cell_specs(
    strategy: str,
    n_ranks: int,
    with_failure: bool,
    jitter: float,
    victim: int,
    pfs_servers: int,
) -> List[CellSpec]:
    return paired_specs(
        "minimd", strategy, n_ranks, _md_cfg(n_ranks, jitter), CKPT_INTERVAL,
        _md_env(n_ranks, pfs_servers), FAIL_AFTER_CKPT, victim=victim,
        with_failure=with_failure,
    )


def run_fig6_cell(
    strategy: str,
    n_ranks: int,
    with_failure: bool = True,
    jitter: float = 0.05,
    victim: int = 1,
    pfs_servers: int = 4,
) -> Fig6Cell:
    """One (strategy, rank count) cell of Figure 6.

    ``jitter`` models the performance variability that, at larger node
    counts, hides part of the asynchronous-checkpoint latency inside the
    compute phases (Section VI-D1).
    """
    return run_paired_cells(
        Fig6Cell, [(strategy, n_ranks)],
        lambda *key: _cell_specs(*key, with_failure, jitter, victim,
                                 pfs_servers),
    )[0]


def run_fig6_weak_scaling(
    ranks: Optional[List[int]] = None,
    strategies: Optional[List[str]] = None,
    with_failure: bool = True,
    jitter: float = 0.05,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> List[Fig6Cell]:
    keys = [(strategy, n)
            for n in ranks or RANK_COUNTS
            for strategy in strategies or FIG6_STRATEGIES]
    return run_paired_cells(
        Fig6Cell, keys,
        lambda *key: _cell_specs(*key, with_failure, jitter, victim=1,
                                 pfs_servers=4),
        jobs=jobs, cache=cache, progress=progress)


def format_fig6(cells: List[Fig6Cell], title: str = "Figure 6") -> str:
    from repro.harness.report import MINIMD_CATEGORIES, summarize_categories

    header = ["strategy", "ranks"] + MINIMD_CATEGORIES + ["wall", "fail_cost"]
    rows = []
    for cell in cells:
        summary = summarize_categories(cell.clean, MINIMD_CATEGORIES)
        fail = "-" if cell.failure_cost is None else f"{cell.failure_cost:.2f}"
        rows.append(
            [cell.strategy, str(cell.n_ranks)]
            + [f"{summary[c]:.2f}" for c in MINIMD_CATEGORIES]
            + [f"{cell.clean.wall_time:.2f}", fail]
        )
    return "\n".join([title] + format_table(header, rows))
