"""Figure 7: MiniMD view census vs simulation size.

"Statistics on the relative sizes of the data regions of MiniMD and how
they are checkpointed or ignored" over simulation sizes 100^3 .. 400^3:
the fraction of view memory that is Checkpointed, declared Alias, or
Skipped (duplicate captures), plus the Section VI-E counts (61 views:
39 checkpointed / 3 aliases / 19 skipped; one view dominating).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.minimd import MiniMDConfig, MiniMDState
from repro.kokkos import KokkosRuntime
from repro.parallel import CampaignProgress, parallel_map

SIM_SIZES = [100, 200, 300, 400]


@dataclass
class Fig7Row:
    sim_size: int
    counts: Dict[str, int]
    fractions: Dict[str, float]
    dominant_view_fraction: float  # of the checkpointed bytes


def _census_row(size: int) -> Fig7Row:
    """One simulation size's census (module-level: pool workers pickle it)."""
    cfg = MiniMDConfig(
        real_atoms_per_rank=24, problem_size=size, n_ranks_for_model=8
    )
    runtime = KokkosRuntime()
    state = MiniMDState(runtime, cfg, comm_rank=0, comm_size=2)
    census = runtime.registry.census(state.all_views())
    ckpt_sizes = sorted(
        (v.modeled_nbytes for v in census.checkpointed), reverse=True
    )
    return Fig7Row(
        sim_size=size,
        counts={
            "checkpointed": len(census.checkpointed),
            "alias": len(census.aliases),
            "skipped": len(census.skipped),
        },
        fractions=census.fractions_by_class(),
        dominant_view_fraction=(
            ckpt_sizes[0] / sum(ckpt_sizes) if ckpt_sizes else 0.0
        ),
    )


def run_fig7_census(
    sizes: Optional[List[int]] = None,
    jobs: int = 1,
    progress: Optional[CampaignProgress] = None,
) -> List[Fig7Row]:
    return parallel_map(_census_row, sizes or SIM_SIZES, jobs=jobs,
                        progress=progress)


def format_fig7(rows: List[Fig7Row],
                title: str = "Figure 7: MiniMD view census") -> str:
    lines = [title, "size^3  checkpointed  alias  skipped  (counts)  "
                    "%ckpt  %alias  %skip  dominant%"]
    for row in rows:
        lines.append(
            f"{row.sim_size:>5}  "
            f"{row.counts['checkpointed']:>12}  {row.counts['alias']:>5}  "
            f"{row.counts['skipped']:>7}            "
            f"{100 * row.fractions['checkpointed']:5.1f}  "
            f"{100 * row.fractions['alias']:6.1f}  "
            f"{100 * row.fractions['skipped']:5.1f}  "
            f"{100 * row.dominant_view_fraction:8.1f}"
        )
    return "\n".join(lines)
