"""Ablation: full-copy vs incremental checkpoint data path.

Runs the Figure-5 heatdis scenario and the Figure-6 miniMD scenario with
the VeloC data path in both configurations:

- ``full``: every checkpoint deep-copies every protected region and
  flushes the full logical size to the PFS (the pre-incremental
  behavior, ``veloc_incremental=False``);
- ``incremental``: copy-on-write chunk snapshots -- only dirty chunks
  are copied, and the node server's content-addressed chunk index
  flushes only novel chunks (``veloc_incremental=True``,
  ``veloc_dedup=True``).

Each (app, arm) cell runs clean and with the paper's between-checkpoints
failure, so the table shows checkpoint cost, failure cost, and the data
path's ``dirty_fraction`` / ``dedup_ratio`` side by side.

The correctness bar is :func:`verify_restore_equivalence`: the failing
fig5 heatdis run must produce *bit-identical* final grids under both
arms, and the failing run must match the clean run (recovery is exact).
The simulated apps mutate raw arrays, so conservative dirty tracking
keeps them at full copies -- the ablation therefore demonstrates
*equivalence* plus whatever dedup the content-addressed store finds,
while the host-side win for in-place writers is measured by the
``test_checkpoint_path`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import (
    PairedCell,
    paired_specs,
    paper_env,
    run_paired_cells,
    with_app_init,
)
from repro.experiments.fig5_heatdis import (
    CKPT_INTERVAL,
    FAIL_AFTER_CKPT,
    _heat_cfg,
)
from repro.experiments.fig6_minimd import MINIMD_APP_INIT, _md_cfg
from repro.harness import RunReport
from repro.parallel import (
    CampaignProgress,
    CellSpec,
    RunCache,
    execute_cell,
)
from repro.util.units import format_table, parse_size

#: the two data-path arms, by the env flag they set
ARMS = ["full", "incremental"]

#: all three resilience layers active, as in the paper's headline column
STRATEGY = "fenix_kr_veloc"

DEFAULT_RANKS = 4
DEFAULT_DATA_SIZE = "64MB"


@dataclass
class AblationCell(PairedCell):
    """One (app, arm) cell: clean + failing runs of the same scenario."""

    app: str
    arm: str
    n_ranks: int

    @property
    def checkpoint_seconds(self) -> float:
        return self.clean.category("checkpoint_function")

    @property
    def data_path(self) -> Dict[str, float]:
        return self.clean.data_path


def _arm_env(app: str, arm: str, n_ranks: int, pfs_servers: int = 2):
    incremental = arm == "incremental"
    env = paper_env(
        n_nodes=n_ranks + 1,
        pfs_servers=pfs_servers,
        veloc_incremental=incremental,
        veloc_dedup=incremental,
    )
    if app == "minimd":
        # mirror fig6's larger application init (the point of miniMD)
        env = with_app_init(env, MINIMD_APP_INIT)
    return env


def _arm_specs(app: str, arm: str, n_ranks: int,
               data_bytes: float) -> List[CellSpec]:
    cfg = (_heat_cfg(data_bytes) if app == "heatdis"
           else _md_cfg(n_ranks, jitter=0.05))
    return paired_specs(app, STRATEGY, n_ranks, cfg, CKPT_INTERVAL,
                        _arm_env(app, arm, n_ranks), FAIL_AFTER_CKPT)


def run_checkpoint_ablation(
    n_ranks: int = DEFAULT_RANKS,
    data_size: "float | str" = DEFAULT_DATA_SIZE,
    apps: Optional[List[str]] = None,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> List[AblationCell]:
    """Run the full-vs-incremental sweep; cells come back app-major."""
    data_bytes = parse_size(data_size)
    keys = [(app, arm, n_ranks)
            for app in apps or ["heatdis", "minimd"] for arm in ARMS]
    return run_paired_cells(
        AblationCell, keys,
        lambda *key: _arm_specs(*key, data_bytes),
        jobs=jobs, cache=cache, progress=progress)


def _final_grids(report: RunReport) -> Dict[int, np.ndarray]:
    return {rank: out["grid"] for rank, out in sorted(report.results.items())}


def verify_restore_equivalence(
    n_ranks: int = DEFAULT_RANKS,
    data_size: "float | str" = DEFAULT_DATA_SIZE,
) -> Dict[str, int]:
    """Assert the incremental data path restores bit-identically.

    Runs the failing fig5 heatdis scenario in-process (``run_cells``
    strips per-rank payloads at the worker boundary, so this check keeps
    the reports local) under both arms plus the incremental clean run,
    and asserts:

    1. failed(incremental) == failed(full) per-rank, bit for bit;
    2. failed(incremental) == clean(incremental): recovery replays the
       lost iterations to the exact same state.

    Returns ``{"ranks": N, "compared": count}`` on success; raises
    ``AssertionError`` naming the first mismatching rank otherwise.
    """
    data_bytes = parse_size(data_size)
    full_clean, full_failed = _arm_specs(
        "heatdis", "full", n_ranks, data_bytes)
    incr_clean, incr_failed = _arm_specs(
        "heatdis", "incremental", n_ranks, data_bytes)
    del full_clean  # the full arm only needs its failing run here
    grids = {
        name: _final_grids(execute_cell(spec).report)
        for name, spec in [("full/failed", full_failed),
                           ("incr/failed", incr_failed),
                           ("incr/clean", incr_clean)]
    }
    compared = 0
    for a, b in [("incr/failed", "full/failed"),
                 ("incr/failed", "incr/clean")]:
        assert grids[a].keys() == grids[b].keys(), (
            f"rank sets differ between {a} and {b}")
        for rank in grids[a]:
            ga, gb = grids[a][rank], grids[b][rank]
            assert ga.shape == gb.shape and np.array_equal(ga, gb), (
                f"restore mismatch: rank {rank} grid differs "
                f"between {a} and {b}")
            compared += 1
    return {"ranks": n_ranks, "compared": compared}


def format_ablation(cells: List[AblationCell],
                    title: str = "Checkpoint data-path ablation") -> str:
    def pct(dp: Dict[str, float], key: str) -> str:
        return f"{100.0 * dp[key]:.1f}" if key in dp else "--"

    header = ["app", "arm", "ranks", "ckpt_s", "wall", "fail_cost",
              "dirty%", "dedup%"]
    rows = []
    for cell in cells:
        rows.append([
            cell.app, cell.arm, str(cell.n_ranks),
            f"{cell.checkpoint_seconds:.2f}",
            f"{cell.clean.wall_time:.2f}",
            f"{cell.failure_cost:.2f}",
            pct(cell.data_path, "dirty_fraction"),
            pct(cell.data_path, "dedup_ratio"),
        ])
    return "\n".join([title] + format_table(header, rows))
