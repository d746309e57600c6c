"""Ablations of the modelling choices DESIGN.md calls out: the
``python -m repro experiments ablation`` target.

These are not paper figures; they justify the modelling decisions behind
them, one study and one ``results/ablation_<study>.txt`` each:

- ``collectives``: binomial vs flat bcast (why App-MPI scales
  logarithmically);
- ``pfs``: PFS I/O-server count (the Lustre bottleneck knob);
- ``flush_chunk``: VeloC flush chunk size (why background flushes must
  be preemptable);
- ``burst_buffer``: a burst-buffer tier between the nodes and the PFS;
- ``spares``: a spare pool under repeated failures;
- ``interval``: the checkpoint-interval sweep (the recompute /
  checkpoint-cost trade-off);
- ``checkpoint``: the Figure-5 heatdis and Figure-6 miniMD scenarios
  under both VeloC data paths: ``full`` deep-copies every protected
  region and flushes its full logical size to the PFS (the
  pre-incremental behavior, ``veloc_incremental=False``);
  ``incremental`` takes copy-on-write chunk snapshots and copies and
  flushes only dirty chunks.

Every study but ``collectives`` (one bare broadcast, no job) is a sweep
of cells through :func:`~repro.parallel.run_cells`.  Each data-path
(app, arm) cell runs clean and with the paper's between-checkpoints
failure, so the table shows checkpoint cost, failure cost, and the data
path's ``dirty_fraction`` side by side.

The correctness bar is :func:`verify_restore_equivalence`: the failing
fig5 heatdis run must produce *bit-identical* final grids under both
arms, and the failing run must match the clean run (recovery is exact).
The simulated apps mutate raw arrays, so conservative dirty tracking
keeps them at full copies -- the ablation therefore demonstrates
*equivalence*, while the host-side win for in-place writers is measured
by the ``test_checkpoint_path`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.apps import HeatdisConfig
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
from repro.harness import ExperimentEnv, RunReport
from repro.mpi import World
from repro.parallel import (
    CampaignProgress,
    CellSpec,
    PlanSpec,
    RunCache,
    execute_cell,
    run_cells,
)
from repro.sim import Cluster, ClusterSpec, NetworkSpec, NodeSpec, PFSSpec
from repro.util.units import GiB, MiB, format_table, parse_size

CFG = HeatdisConfig(local_rows=8, cols=16, modeled_bytes_per_rank=512e6,
                    n_iters=60, work_multiplier=1000.0)
N_RANKS = 8

BCAST_RANKS = (4, 16, 64)
PFS_SERVERS = (1, 2, 4, 8)
FLUSH_CHUNKS = (1 * MiB, 8 * MiB, 64 * MiB, 512 * MiB)
#: failures against a 3-spare pool: the k-th kills rank k at the last
#: iteration before checkpoint k + 3
FAILURES = (0, 1, 2, 3)
#: one kill at iteration 50: the latest restorable checkpoint is
#: 48 / 45 / 27 for these intervals
INTERVALS = (3, 9, 27)


def _bcast_seconds(n_ranks: int, algorithm: str) -> float:
    """Slowest rank's time for one 8 MiB broadcast from rank 0."""
    cluster = Cluster(ClusterSpec(
        n_nodes=n_ranks,
        node=NodeSpec(nic_bandwidth=1 * GiB, nic_latency=2e-6),
        network=NetworkSpec(fabric_latency=1e-6),
    ))
    world = World(cluster, n_ranks)
    times = {}

    def body(rank):
        h = world.comm_world_handle(rank)
        t0 = cluster.engine.now
        yield from h.bcast(b"x" if rank == 0 else None, root=0,
                           nbytes=8 * MiB, algorithm=algorithm)
        times[rank] = cluster.engine.now - t0

    for r in range(n_ranks):
        world.spawn(r, body(r))
    cluster.engine.run()
    return max(times.values())


def _cell(strategy: str, env: ExperimentEnv,
          ckpt_interval: int = CKPT_INTERVAL, kills=()) -> CellSpec:
    plan = PlanSpec.iteration(kills) if kills else PlanSpec.none()
    return CellSpec(app="heatdis", strategy=strategy, n_ranks=N_RANKS,
                    config=CFG, ckpt_interval=ckpt_interval, env=env,
                    plan=plan)


def run_design_ablations(
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> Dict[str, List[tuple]]:
    """Every study's rows, by study name (what :func:`format_study`
    renders and the ablation claims read)."""
    base = paper_env(n_nodes=N_RANKS + 1, pfs_servers=1)
    spec = base.cluster_spec
    bb_spec = replace(spec, burst_buffer=PFSSpec(
        n_servers=4, server_bandwidth=4 * GiB, server_latency=1e-5,
        chunk_bytes=8 * MiB))
    cells = {
        **{("pfs", n, s): _cell(s, paper_env(N_RANKS + 1, pfs_servers=n))
           for n in PFS_SERVERS for s in ("fenix_kr_veloc", "none")},
        **{("flush_chunk", c): _cell("fenix_kr_veloc", replace(
            base, cluster_spec=replace(spec, pfs=replace(spec.pfs,
                                                         chunk_bytes=c))))
           for c in FLUSH_CHUNKS},
        **{("burst_buffer", bb, kills): _cell("fenix_kr_veloc", replace(
            base, cluster_spec=bb_spec, use_burst_buffer=bb), kills=kills)
           for bb in (False, True) for kills in ((), ((1, 44),))},
        **{("spares", k): _cell(
            "fenix_kr_veloc",
            paper_env(N_RANKS + 3, n_spares=3, pfs_servers=1),
            kills=[(r, 9 * (2 + r) + 8) for r in range(k)])
           for k in FAILURES},
        **{("interval", i): _cell("fenix_kr_veloc", base, i,
                                  kills=((1, 50),))
           for i in INTERVALS},
    }
    reports = dict(zip(cells, (res.report for res in run_cells(
        list(cells.values()), jobs=jobs, cache=cache, progress=progress))))

    def burst_buffer_row(bb: bool) -> tuple:
        clean, failed = reports["burst_buffer", bb, ()], \
            reports["burst_buffer", bb, ((1, 44),)]
        return ("bb" if bb else "pfs-only", clean.category("app_mpi"),
                failed.category("data_recovery"),
                failed.wall_time - clean.wall_time)

    def pfs_row(n: int) -> tuple:
        rep = reports["pfs", n, "fenix_kr_veloc"]
        none = reports["pfs", n, "none"]
        return (n, rep.wall_time - none.wall_time,
                rep.category("app_mpi") - none.category("app_mpi"))

    def interval_row(i: int) -> tuple:
        rep = reports["interval", i]
        return (i, rep.wall_time, rep.category("recompute"),
                rep.category("checkpoint_function") + rep.category("app_mpi"))

    return {
        "collectives": [(n, _bcast_seconds(n, "binomial"),
                         _bcast_seconds(n, "flat")) for n in BCAST_RANKS],
        "pfs": [pfs_row(n) for n in PFS_SERVERS],
        "flush_chunk": [(c, reports["flush_chunk", c].category("app_mpi"))
                        for c in FLUSH_CHUNKS],
        "burst_buffer": [burst_buffer_row(bb) for bb in (False, True)],
        "spares": [(k, reports["spares", k].wall_time,
                    reports["spares", k].attempts) for k in FAILURES],
        "interval": [interval_row(i) for i in INTERVALS],
    }


#: study -> (title, header, row format)
TABLES: Dict[str, Any] = {
    "collectives": (
        "Ablation: bcast algorithm (8 MiB payload)",
        "ranks  binomial(s)  flat(s)  speedup",
        lambda n, tree, flat:
            f"{n:>5}  {tree:11.4f}  {flat:7.4f}  {flat / tree:7.2f}x"),
    "pfs": (
        "Ablation: PFS I/O servers vs checkpoint overhead (512MB/rank)",
        "servers  overhead(s)  extra app_mpi(s)",
        lambda n, ov, mpi: f"{n:>7}  {ov:11.3f}  {mpi:16.3f}"),
    "flush_chunk": (
        "Ablation: PFS flush chunk size vs App-MPI congestion",
        "chunk(MiB)  app_mpi(s)",
        lambda c, mpi: f"{c / MiB:>10.0f}  {mpi:9.3f}"),
    "burst_buffer": (
        "Ablation: burst-buffer tier (512MB/rank, 1 PFS server)",
        "config      clean_app_mpi(s)  recovery(s)  fail_cost(s)",
        lambda name, mpi, rec, cost:
            f"{name:>10}  {mpi:16.3f}  {rec:11.3f}  {cost:12.3f}"),
    "spares": (
        "Ablation: repeated failures with a 3-spare pool (8 ranks)",
        "failures  wall(s)  attempts",
        lambda n, wall, attempts: f"{n:>8}  {wall:7.2f}  {attempts:8d}"),
    "interval": (
        "Ablation: checkpoint interval with a failure at iteration 50",
        "interval  wall(s)  recompute(s)  ckpt_fn+appmpi(s)",
        lambda i, wall, recompute, cost:
            f"{i:>8}  {wall:7.2f}  {recompute:12.2f}  {cost:17.2f}"),
}


def format_study(name: str, rows: List[tuple]) -> str:
    """``results/ablation_<name>.txt``."""
    title, header, row = TABLES[name]
    return "\n".join([title, header, *(row(*r) for r in rows)])


# -- the checkpoint data path: full copies vs incremental ---------------------

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
    def data_path(self) -> Dict[str, float]:
        return self.clean.data_path


def _arm_env(app: str, arm: str, n_ranks: int, pfs_servers: int = 2):
    env = paper_env(
        n_nodes=n_ranks + 1,
        pfs_servers=pfs_servers,
        veloc_incremental=arm == "incremental",
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


def format_ablation(cells: List[AblationCell]) -> str:
    """The data-path table (``results/ablation_checkpoint.txt`` with the
    restore-equivalence line under it)."""
    def pct(dp: Dict[str, float], key: str) -> str:
        return f"{100.0 * dp[key]:.1f}" if key in dp else "--"

    header = ["app", "arm", "ranks", "ckpt_s", "wall", "fail_cost",
              "dirty%"]
    rows = []
    for cell in cells:
        rows.append([
            cell.app, cell.arm, str(cell.n_ranks),
            f"{cell.clean.category('checkpoint_function'):.2f}",
            f"{cell.clean.wall_time:.2f}",
            f"{cell.failure_cost:.2f}",
            pct(cell.data_path, "dirty_fraction"),
        ])
    title = (f"Checkpoint data-path ablation ({cells[0].n_ranks} ranks, "
             f"{STRATEGY})")
    return "\n".join([title] + format_table(header, rows))
