"""Shared profiled runs (module-scoped: each scenario simulates once)."""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.sim.failures import IterationFailure, NoFailures
from repro.telemetry import Telemetry

RANKS = 4
INTERVAL = 10
KILL_RANK = 2


def run_profiled(strategy, plan, n_iters=30, bytes_per_rank=16e6,
                 **kwargs):
    """One profiled heatdis job; returns (telemetry, report)."""
    from repro.harness.strategies import STRATEGIES

    n_spares = 1 if STRATEGIES[strategy].fenix else 0
    env = paper_env(RANKS + max(n_spares, 1), n_spares=n_spares,
                    pfs_servers=2)
    cfg = HeatdisConfig(n_iters=n_iters,
                        modeled_bytes_per_rank=bytes_per_rank)
    tel = Telemetry(enabled=True)
    report = run_heatdis_job(env, strategy, RANKS, cfg, INTERVAL,
                             plan=plan, telemetry=tel, profile=True,
                             **kwargs)
    return tel, report


@pytest.fixture(scope="module")
def fig5_run():
    """Fenix+KR+VeloC heatdis, rank 2 killed between checkpoints 1-2."""
    plan = IterationFailure.between_checkpoints(KILL_RANK, INTERVAL, 1)
    return run_profiled("fenix_kr_veloc", plan)


@pytest.fixture(scope="module")
def clean_run():
    """Same stack with no failure injected."""
    return run_profiled("fenix_kr_veloc", NoFailures())


@pytest.fixture(scope="module")
def partial_run():
    """Partial-rollback strategy (convergence mode, as required by the
    recovered_only scope): rank 1 killed between checkpoints 2-3."""
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    cfg = HeatdisConfig(local_rows=8, cols=16,
                        modeled_bytes_per_rank=16e6, n_iters=2000,
                        convergence_threshold=1.0, work_multiplier=200.0)
    plan = IterationFailure.between_checkpoints(1, 60, 2)
    tel = Telemetry(enabled=True)
    report = run_heatdis_job(env, "fenix_kr_partial", RANKS, cfg, 60,
                             plan=plan, telemetry=tel, profile=True)
    return tel, report


@pytest.fixture(scope="module")
def shrink_run():
    """PROTOCOLS.md section-4 scenario: elastic heatdis, zero spares,
    shrink policy -- rank 1 dies and the job continues on 2 ranks."""
    from repro.apps.heatdis_elastic import make_elastic_heatdis_main
    from repro.fenix import FenixSystem
    from repro.harness.recompute import RecomputeTracker
    from repro.mpi import World
    from repro.sim import Cluster
    from repro.sim.trace import Trace
    from tests.apps.conftest import app_cluster

    n_ranks = 3
    tel = Telemetry(enabled=True)
    base = app_cluster(n_ranks)
    cluster = Cluster(base.spec, telemetry=tel, trace=Trace())
    plan = IterationFailure([(1, 17)])
    world = World(cluster, n_ranks)
    system = FenixSystem(world, n_spares=0, spare_policy="shrink")
    cfg = HeatdisConfig(local_rows=12 // n_ranks, cols=16,
                        modeled_bytes_per_rank=16e6, n_iters=30)
    results = {}
    main = make_elastic_heatdis_main(
        cfg, cluster, 12, n_ranks, 6, failure_plan=plan, results=results,
        tracker=RecomputeTracker(),
    )

    def wrapped(rank):
        yield from system.run(world.context(rank), main)

    for r in range(n_ranks):
        world.spawn(r, wrapped(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    tel.trace = cluster.trace
    return tel, system, results
