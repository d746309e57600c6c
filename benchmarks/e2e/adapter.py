"""The only file of the benchmark that imports ``repro``.

Everything the workloads and probes need from the program goes through
the names bound here, so a front-door rename (ROADMAP item 3) is a
benchmark-only change to this one file followed by a re-baseline.  The
front doors wrapped are listed in README.md; keep the two in step.

Nothing here times anything: the callers own the clock and the oracle.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.align.engine import align
from repro.align.keying import key_records
from repro.apps import HeatdisConfig, MiniMDConfig, heatdis_reference
from repro.apps.minimd import MiniMDState
from repro.core import KRConfig, make_context, never
from repro.experiments import fig5_heatdis, fig6_minimd
from repro.experiments.common import paper_env
from repro.fenix import FenixSystem, IMRStore
from repro.harness import (
    STRATEGIES,
    ExperimentEnv,
    JobCosts,
    RunReport,
    run_heatdis_job,
    run_minimd_job,
)
from repro.harness.report import reports_to_json
from repro.harness.runner import JobRunner
from repro.kokkos import KokkosRuntime
from repro.live.rules import LiveSession, load_rules
from repro.monitor import MonitorSuite
from repro.monitor.trace_io import JsonlTraceSink
from repro.mpi import SUM, World
from repro.parallel import (
    CellSpec,
    PlanSpec,
    RunCache,
    cache_key,
    code_fingerprint,
    run_cells,
)
from repro.parallel import cache as _run_cache
from repro.profile.ledger import build_ledger
from repro.sim import (
    Cluster,
    Engine,
    IterationFailure,
    NoFailures,
    TimedFailure,
    Trace,
)
from repro.telemetry import Telemetry
from repro.veloc import VeloCClient, VeloCConfig, VeloCService
from repro.veloc.snapshot import payload_array

__all__ = [
    "Cluster", "Engine", "FenixSystem", "IMRStore", "IterationFailure",
    "JobRunner", "KRConfig", "KokkosRuntime", "LiveSession", "MiniMDState",
    "MonitorSuite", "NoFailures", "RunCache", "STRATEGIES", "SUM",
    "Telemetry", "TimedFailure", "Trace", "VeloCService", "World", "align",
    "build_ledger",
    "cache_key", "code_fingerprint", "key_records", "load_rules",
    "make_context", "never", "paper_env", "run_cells",
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SLO_RULES = os.path.join(REPO_ROOT, "examples", "slo_rules.json")

#: the figure-5/6 protocol: 60 iterations, a checkpoint every 9
N_ITERS = fig5_heatdis.N_ITERS
CKPT_INTERVAL = fig5_heatdis.CKPT_INTERVAL
#: kills may follow checkpoints 1..5 (0 would precede the first version)
KILL_GAPS = range(1, N_ITERS // CKPT_INTERVAL)


# -- jobs ------------------------------------------------------------------


def heatdis_config(jitter: float = 0.05) -> HeatdisConfig:
    """The figure-5 Heatdis problem: 1 GB modelled per rank over a real
    8x16 grid."""
    return HeatdisConfig(
        local_rows=8, cols=16, modeled_bytes_per_rank=1e9, n_iters=N_ITERS,
        compute_jitter=jitter, work_multiplier=fig5_heatdis.WORK_MULTIPLIER,
    )


def kill_plan(victim: int, gap: int) -> PlanSpec:
    """One kill at 95% of the way from checkpoint ``gap`` to the next."""
    return PlanSpec.between_checkpoints(victim, CKPT_INTERVAL, gap, 0.95)


def heatdis_job(strategy: str, n_ranks: int, *, pfs_servers: int,
                cluster_seed: int, jitter: float = 0.05,
                kill: Optional[PlanSpec] = None, **observers: Any):
    """One Heatdis job through the harness front door.

    Returns ``(report, live_plan)``; the plan says which kills fired.
    """
    plan = (kill or PlanSpec.none()).build()
    env = paper_env(n_ranks + 1, seed=cluster_seed, pfs_servers=pfs_servers)
    report = run_heatdis_job(env, strategy, n_ranks, heatdis_config(jitter),
                             CKPT_INTERVAL, plan=plan, **observers)
    return report, plan


def minimd_env(n_ranks: int, cluster_seed: int) -> ExperimentEnv:
    """Figure 6's platform: the paper env with MiniMD's larger app init."""
    env = paper_env(n_ranks + 1, seed=cluster_seed, pfs_servers=1)
    init = fig6_minimd.MINIMD_APP_INIT / 2
    costs = JobCosts(
        mpirun_launch=env.costs.mpirun_launch,
        per_node_launch=env.costs.per_node_launch,
        mpi_init=env.costs.mpi_init, mpi_finalize=env.costs.mpi_finalize,
        teardown=env.costs.teardown,
        app_noncomm_init=init, app_comm_init=init,
    )
    return ExperimentEnv(cluster_spec=env.cluster_spec, costs=costs,
                         n_spares=env.n_spares)


def minimd_config(jitter: float = 0.05) -> MiniMDConfig:
    """The figure-6 MiniMD problem (24 real atoms per rank)."""
    return MiniMDConfig(
        real_atoms_per_rank=24, problem_size=100, n_ranks_for_model=2,
        n_steps=fig6_minimd.N_STEPS, dt=0.003, neigh_every=6,
        compute_jitter=jitter, work_multiplier=fig6_minimd.WORK_MULTIPLIER,
    )


def minimd_job(strategy: str, n_ranks: int, *, cluster_seed: int,
               jitter: float = 0.05, kill: Optional[PlanSpec] = None):
    """One MiniMD job through the harness front door."""
    plan = (kill or PlanSpec.none()).build()
    report = run_minimd_job(
        minimd_env(n_ranks, cluster_seed), strategy, n_ranks,
        minimd_config(jitter), fig6_minimd.CKPT_INTERVAL, plan=plan)
    return report, plan


def heatdis_grid(report: RunReport) -> np.ndarray:
    """Final global grid of a Heatdis run, ranks stacked in order."""
    return np.vstack([report.results[r]["grid"]
                      for r in range(report.n_ranks)])


def heatdis_expected(n_ranks: int) -> np.ndarray:
    """The single-domain reference for the figure-5 problem."""
    return heatdis_reference(heatdis_config(), n_ranks, N_ITERS)


def minimd_state(report: RunReport) -> np.ndarray:
    """Final positions and velocities of a MiniMD run, ranks stacked."""
    return np.vstack([
        np.hstack([report.results[r]["x"], report.results[r]["v"]])
        for r in range(report.n_ranks)
    ])


def kills_fired(plan: Any) -> bool:
    """Did every scheduled kill of an iteration plan actually fire?"""
    return not getattr(plan, "pending", ())


def sim_stats(report: RunReport) -> Dict[str, Any]:
    """Every simulated statistic of a run (the digest's input)."""
    return {
        "wall_time": report.wall_time,
        "buckets": dict(report.buckets),
        "platform": dict(report.platform),
        "attempts": report.attempts,
        "data_path": dict(report.data_path),
    }


# -- observers -------------------------------------------------------------


class TraceCapture:
    """A ``trace_sink`` that only keeps a reference to the run's trace."""

    def __init__(self) -> None:
        self.trace: Optional[Trace] = None

    def attach(self, trace: Trace) -> None:
        self.trace = trace


def observers(telemetry: bool = False, monitor: bool = False,
              profile: bool = False, live: bool = False,
              sink: Optional[Any] = None, audit: bool = False
              ) -> Dict[str, Any]:
    """Keyword arguments switching observers on for a harness job.

    ``sink`` is a path (a JSONL flight recorder is opened on it; the
    caller closes ``kwargs["trace_sink"]``) or any object with
    ``attach(trace)``.
    """
    kwargs: Dict[str, Any] = {}
    if telemetry or profile:
        kwargs["telemetry"] = Telemetry()
    if monitor:
        kwargs["strict_monitor"] = True
    if profile:
        kwargs["profile"] = True
    if live:
        kwargs["rules"] = SLO_RULES
    if sink is not None:
        kwargs["trace_sink"] = (
            JsonlTraceSink(sink) if isinstance(sink, str) else sink)
    if audit:
        kwargs["determinism_audit"] = True
    return kwargs


# -- the data path, driven directly ------------------------------------------


class CheckpointRig:
    """One rank, one real view, one VeloC client on the paper platform.

    The benchmark-owned main of the ``ckpt_*`` workloads and the
    data-path probes: ``run(body)`` drives a generator on the engine and
    returns the simulated seconds it took.
    """

    COLS = 256

    def __init__(self, mib: int, **config: Any) -> None:
        self.cluster = Cluster(paper_env(1, pfs_servers=1).cluster_spec)
        world = World(self.cluster, 1)
        self.ctx = world.context(0)
        self.service = VeloCService(self.cluster)
        self.client = VeloCClient(
            self.ctx, self.cluster, self.service,
            VeloCConfig(mode="single", **config),
            comm=world.comm_world_handle(0))
        self.rows = mib * 1024 * 1024 // (8 * self.COLS)
        self.view = KokkosRuntime().view("state", shape=(self.rows, self.COLS))
        self.view.fill(0.0)  # touch every page: no first-write faults later
        self.client.mem_protect(0, self.view)

    def run(self, body: Callable[[], Generator]) -> float:
        engine = self.cluster.engine
        t0 = engine.now
        done: List[float] = []

        def main():
            yield from body()
            done.append(engine.now)

        engine.process(main(), name="bench.main")
        engine.run()
        return done[0] - t0

    def forget_persisted(self, before: int) -> None:
        """Delete flushed versions older than ``before`` from the PFS,
        which otherwise keeps every one for the life of the cluster."""
        for key in self.cluster.pfs.keys():
            if key[2] < before:
                self.cluster.pfs.delete(key)

    def stored(self, version: int) -> np.ndarray:
        """The payload node-local scratch holds for ``version``."""
        key = ("veloc", self.client.config.ckpt_name, int(version),
               self.client.veloc_rank)
        snapshot, _nbytes = self.ctx.node.scratch[key]
        return payload_array(snapshot[0])


# -- campaigns ---------------------------------------------------------------


#: the MTBF campaign's job (repro.experiments.campaign): 8 ranks, 4 spares,
#: at most 3 failures
SWEEP_RANKS = 8
SWEEP_CONFIG = HeatdisConfig(
    local_rows=8, cols=16, modeled_bytes_per_rank=256e6, n_iters=120,
    work_multiplier=fig5_heatdis.WORK_MULTIPLIER)


def sweep_cells(plan_seeds: Sequence[int], mtbf_per_rank: float
                ) -> List[CellSpec]:
    """The campaign's cells: two strategies x exponential-failure seeds."""
    return [
        CellSpec(
            app="heatdis", strategy=strategy, n_ranks=SWEEP_RANKS,
            config=SWEEP_CONFIG, ckpt_interval=CKPT_INTERVAL,
            env=paper_env(SWEEP_RANKS + 4, n_spares=4, pfs_servers=1),
            plan=PlanSpec.exponential(mtbf_per_rank, seed=seed,
                                      max_failures=3),
            label=f"{strategy}/s{seed}",
        )
        for strategy in ("kr_veloc", "fenix_kr_veloc") for seed in plan_seeds
    ]


def sweep_mtbf() -> float:
    """Per-rank MTBF as the campaign calibrates it: about three failures
    over the failure-free, resilience-free run of the same job."""
    ideal = run_heatdis_job(paper_env(SWEEP_RANKS + 1, pfs_servers=1), "none",
                            SWEEP_RANKS, SWEEP_CONFIG, CKPT_INTERVAL)
    return ideal.wall_time * SWEEP_RANKS / 3


def forget_code_fingerprint() -> None:
    """Drop the per-process memo so ``code_fingerprint`` hashes the
    sources again (the only private name the benchmark touches)."""
    _run_cache._code_fingerprint = None


def results_json(results: Sequence[Any]) -> str:
    """Canonical serialized form of a pass's reports."""
    return reports_to_json([r.report for r in results])
