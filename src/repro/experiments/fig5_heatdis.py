"""Figure 5: Heatdis overhead and failure cost.

Left panel: 64-node runs with per-node data scaled over
{16 MB, 64 MB, 256 MB, 1 GB}.  Right panel: 1 GB per node, weak-scaled
over {4, 16, 64} nodes.  For each strategy the paper stacks the
no-failure run's categories (bottom) and shows the *extra* cost of a
failing run (top): we report both runs per cell.

Paper protocol (Section VI-C): every configuration performs 6 checkpoints,
each half the application data; failures kill one rank ~95% of the way
between checkpoints 4 and 5; reported numbers come from the in-app
category accounting plus the ``time mpirun`` wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps import HeatdisConfig
from repro.experiments.common import (
    PairedCell,
    Scale,
    paired_specs,
    paper_env,
    run_paired_cells,
)
from repro.parallel import CampaignProgress, CellSpec, RunCache
from repro.util.units import format_table, parse_size

#: the strategy columns of Figure 5
FIG5_STRATEGIES = [
    "none",
    "veloc",
    "kr_veloc",
    "fenix_veloc",
    "fenix_kr_veloc",
    "fenix_kr_imr",
]

#: 6 checkpoints over the run (Section VI-C)
N_ITERS = 60
CKPT_INTERVAL = 9
#: failure 95% of the way between checkpoints 4 and 5
FAIL_AFTER_CKPT = 4
#: compute folded per modelled iteration (see HeatdisConfig.work_multiplier)
WORK_MULTIPLIER = 2000.0

DATA_SIZES = ["16MB", "64MB", "256MB", "1GB"]


@dataclass
class Fig5Cell(PairedCell):
    """One (strategy, size, nodes) cell: clean + failure runs."""

    strategy: str
    data_bytes: float
    n_ranks: int


def _heat_cfg(data_bytes: float, jitter: float = 0.05) -> HeatdisConfig:
    return HeatdisConfig(
        local_rows=8,
        cols=16,
        modeled_bytes_per_rank=data_bytes,
        n_iters=N_ITERS,
        compute_jitter=jitter,
        work_multiplier=WORK_MULTIPLIER,
    )


def _cell_specs(
    strategy: str,
    data_bytes: float,
    n_ranks: int,
    with_failure: bool,
    pfs_servers: int,
) -> List[CellSpec]:
    """The clean (and, when applicable, failing) specs of one figure cell."""
    return paired_specs(
        "heatdis", strategy, n_ranks, _heat_cfg(data_bytes), CKPT_INTERVAL,
        paper_env(n_nodes=n_ranks + 1, pfs_servers=pfs_servers),
        FAIL_AFTER_CKPT, with_failure=with_failure,
    )


def run_fig5_cell(
    strategy: str,
    data_bytes: "float | str",
    n_ranks: int,
    with_failure: bool = True,
    pfs_servers: int = 4,
) -> Fig5Cell:
    """Run one Figure-5 cell (a clean run and optionally a failing run)."""
    data_bytes = parse_size(data_bytes)
    return run_paired_cells(
        Fig5Cell, [(strategy, data_bytes, n_ranks)],
        lambda *key: _cell_specs(*key, with_failure, pfs_servers),
    )[0]


def run_fig5(
    scale: Scale,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> Tuple[List[Fig5Cell], List[Fig5Cell]]:
    """Both panels at one row of the scale table: data scaling at
    ``scale.fig5_ranks``, then weak scaling at 1 GB per node over
    ``scale.fig5_weak_nodes`` (its largest column is the left panel's
    largest, which a cache serves from the first sweep)."""
    def sweep(keys):
        return run_paired_cells(
            Fig5Cell, keys,
            lambda *key: _cell_specs(*key, True, scale.fig5_pfs),
            jobs=jobs, cache=cache, progress=progress)

    return (sweep([(strategy, parse_size(size), scale.fig5_ranks)
                   for size in DATA_SIZES for strategy in FIG5_STRATEGIES]),
            sweep([(strategy, parse_size("1GB"), n)
                   for n in scale.fig5_weak_nodes
                   for strategy in FIG5_STRATEGIES]))


def format_fig5(cells: List[Fig5Cell], title: str = "Figure 5") -> str:
    """Render cells as the figure's rows (categories + failure cost)."""
    from repro.harness.report import HEATDIS_CATEGORIES, summarize_categories
    from repro.util.units import format_size

    header = (
        ["strategy", "data", "ranks"]
        + HEATDIS_CATEGORIES
        + ["wall", "fail_cost"]
    )
    rows = []
    for cell in cells:
        summary = summarize_categories(cell.clean, HEATDIS_CATEGORIES)
        fail = "-" if cell.failure_cost is None else f"{cell.failure_cost:.2f}"
        rows.append(
            [cell.strategy, format_size(cell.data_bytes), str(cell.n_ranks)]
            + [f"{summary[c]:.2f}" for c in HEATDIS_CATEGORIES]
            + [f"{cell.clean.wall_time:.2f}", fail]
        )
    return "\n".join([title] + format_table(header, rows))
