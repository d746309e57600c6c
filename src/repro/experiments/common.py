"""Shared experiment environment: the modelled Cray XC40 + Lustre platform.

Section VI-B: "a 100-node Cray XC40 ... 2-socket Intel Haswell CPU nodes
with 32 cores/node ... disk-based checkpointing stores to the Lustre
distributed file system."  The numbers below approximate that platform's
*ratios* (NIC vs PFS bandwidth, node compute throughput), which is what
the figures' shapes depend on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.harness import ExperimentEnv, JobCosts, RunReport
from repro.parallel import (
    CampaignProgress,
    CellSpec,
    PlanSpec,
    RunCache,
    run_cells,
)
from repro.sim import ClusterSpec, NetworkSpec, NodeSpec, PFSSpec
from repro.util.units import GiB, MiB


def paper_env(
    n_nodes: int,
    n_spares: int = 1,
    seed: int = 20220906,
    pfs_servers: int = 4,
    veloc_incremental: bool = True,
    veloc_dedup: bool = True,
) -> ExperimentEnv:
    """The reproduction's stand-in for the paper's test platform.

    ``pfs_servers`` sets the Lustre I/O-server count (4 for the paper's
    64-node runs).  Reduced-scale tests pass a proportionally smaller
    value so the node : PFS bandwidth ratio -- which the congestion
    effects depend on -- matches the full-scale configuration.
    ``veloc_incremental`` / ``veloc_dedup`` select the checkpoint data
    path (the ablation drivers turn them off for the full-copy arm).
    """
    spec = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(
            flops=500.0e9,            # 2-socket Haswell, realistic sustained
            nic_bandwidth=10.0 * GiB,  # Cray Aries class
            nic_latency=1.5e-6,
            memory_bandwidth=60.0 * GiB,
            cores=32,
        ),
        network=NetworkSpec(fabric_latency=0.5e-6, chunk_bytes=4 * MiB),
        pfs=PFSSpec(
            # a small Lustre partition: few I/O servers relative to nodes
            n_servers=pfs_servers,
            server_bandwidth=2.0 * GiB,
            server_latency=5.0e-5,
            chunk_bytes=8 * MiB,
        ),
        seed=seed,
    )
    costs = JobCosts(
        mpirun_launch=3.0,
        per_node_launch=0.02,
        mpi_init=0.5,
        mpi_finalize=0.2,
        teardown=2.0,
        app_noncomm_init=0.3,
        app_comm_init=0.5,
    )
    return ExperimentEnv(
        cluster_spec=spec, costs=costs, n_spares=n_spares,
        veloc_incremental=veloc_incremental,
        veloc_dedup=veloc_dedup and veloc_incremental,
    )


def with_app_init(env: ExperimentEnv, seconds: float) -> ExperimentEnv:
    """``env`` with the application's initialization cost set to
    ``seconds``, split evenly between its non-communicative and
    communicative halves (MiniMD's big init is the point of Figure 6)."""
    costs = dataclasses.replace(env.costs, app_noncomm_init=seconds / 2,
                                app_comm_init=seconds / 2)
    return dataclasses.replace(env, costs=costs)


# -- the clean/failed cell pair every figure sweeps ---------------------


@dataclass(kw_only=True)
class PairedCell:
    """One figure cell: the failure-free run and, where the strategy can
    survive one, the same job with the paper's kill.  Figures subclass
    it with the coordinates they sweep."""

    clean: RunReport
    failed: Optional[RunReport] = None

    @property
    def failure_cost(self) -> Optional[float]:
        """Extra wall time the failure added (the figures' top panel)."""
        if self.failed is None:
            return None
        return self.failed.wall_time - self.clean.wall_time


def paired_specs(
    app: str,
    strategy: str,
    n_ranks: int,
    config: Any,
    ckpt_interval: int,
    env: ExperimentEnv,
    fail_after_ckpt: int,
    victim: int = 1,
    with_failure: bool = True,
) -> List[CellSpec]:
    """The ``clean`` spec of one figure cell and, unless the strategy is
    ``none`` (nothing to recover with), its ``failed`` twin: the paper's
    protocol, one rank killed 95% of the way from checkpoint
    ``fail_after_ckpt`` to the next."""
    clean = CellSpec(app=app, strategy=strategy, n_ranks=n_ranks,
                     config=config, ckpt_interval=ckpt_interval, env=env,
                     plan=PlanSpec.none(), label="clean")
    if not with_failure or strategy == "none":
        return [clean]
    kill = PlanSpec.between_checkpoints(victim, ckpt_interval,
                                        fail_after_ckpt, fraction=0.95)
    return [clean, dataclasses.replace(clean, plan=kill, label="failed")]


def run_paired_cells(
    make_cell: Callable[..., PairedCell],
    keys: Sequence[tuple],
    specs_of: Callable[..., List[CellSpec]],
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> list:
    """Build ``specs_of(*key)`` for every key, execute all of them as one
    flat sweep, and regroup by label into
    ``make_cell(*key, clean=..., failed=...)``, in key order."""
    groups = [specs_of(*key) for key in keys]
    executed = iter(run_cells([s for group in groups for s in group],
                              jobs=jobs, cache=cache, progress=progress))
    cells = []
    for key, group in zip(keys, groups):
        reports = {s.label: next(executed).report for s in group}
        cells.append(make_cell(*key, clean=reports["clean"],
                               failed=reports.get("failed")))
    return cells
