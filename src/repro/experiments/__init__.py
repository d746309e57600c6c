"""Per-figure experiment drivers.

Each module regenerates one element of the paper's evaluation:

- :mod:`repro.experiments.fig5_heatdis` -- Figure 5: Heatdis overhead and
  failure cost, data scaling and 1 GB weak scaling;
- :mod:`repro.experiments.fig6_minimd` -- Figure 6: MiniMD weak scaling
  with per-phase breakdown;
- :mod:`repro.experiments.fig7_views` -- Figure 7: the MiniMD view census;
- :mod:`repro.experiments.partial_rollback` -- Section VI-D2's ~2x
  recovery speedup from keeping survivor data;
- :mod:`repro.experiments.complexity` -- Section VI-E's code-complexity
  statistics, computed over this repository's own application sources.

Every driver returns plain data structures and has a formatter for its
table; ``python -m repro experiments`` runs them at a row of
:data:`SCALES`, writes ``results/`` and checks the claims on the cells.
"""

from repro.experiments.common import SCALES, paper_env
from repro.experiments.fig5_heatdis import (
    FIG5_STRATEGIES,
    run_fig5,
    run_fig5_cell,
)
from repro.experiments.fig6_minimd import FIG6_STRATEGIES, run_fig6_cell, run_fig6_weak_scaling
from repro.experiments.fig7_views import run_fig7_census
from repro.experiments.partial_rollback import run_partial_rollback_comparison
from repro.experiments.complexity import analyze_complexity
from repro.experiments.campaign import campaign_table, run_campaign_grid

__all__ = [
    "SCALES",
    "paper_env",
    "FIG5_STRATEGIES",
    "run_fig5",
    "run_fig5_cell",
    "FIG6_STRATEGIES",
    "run_fig6_cell",
    "run_fig6_weak_scaling",
    "run_fig7_census",
    "run_partial_rollback_comparison",
    "analyze_complexity",
    "run_campaign_grid",
    "campaign_table",
]
