"""Shared monitored failure-injection runs (one per strategy family).

Module-scoped: the corruption, explain, and CLI tests all replay the same
recorded streams, so each job runs once per session.
"""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.apps.minimd import MiniMDConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job, run_minimd_job
from repro.monitor import MonitorSuite, standard_monitors
from repro.monitor.state import ProtocolStateTracker
from repro.sim.failures import IterationFailure

RANKS = 4
INTERVAL = 10
N_ITERS = 30


def feed_every_monitor_every_record(records):
    """The suite before it dispatched by kind: the oracle for ``check``.
    The monitors read a shared tracker, fed each record first, as the
    suite does."""
    state = ProtocolStateTracker()
    monitors = standard_monitors()
    for mon in monitors:
        mon.state = state
    for rec in records:
        state.feed(rec)
        for mon in monitors:
            mon.feed(rec)
    violations = []
    for mon in monitors:
        mon.finish()
        violations.extend(mon.violations)
    violations.sort(key=lambda v: (v.time, v.monitor, v.rule))
    return violations


def check(records):
    suite = MonitorSuite(standard_monitors())
    suite.replay(records)
    suite.finish()
    # a monitor is only handed the kinds it declares: on every stream
    # checked here, clean or corrupted, that must change no finding
    assert [v.to_dict() for v in suite.violations] == [
        v.to_dict() for v in feed_every_monitor_every_record(records)]
    return suite.violations


def run_monitored(strategy, kill_rank=2, app="heatdis"):
    """One strictly monitored job; returns (report, suite, records)."""
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    plan = IterationFailure.between_checkpoints(kill_rank, INTERVAL, 1)
    suite = MonitorSuite()
    if app == "minimd":
        report = run_minimd_job(
            env, strategy, RANKS, MiniMDConfig(n_steps=N_ITERS), INTERVAL,
            plan=plan, strict_monitor=True, monitor=suite,
        )
    else:
        report = run_heatdis_job(
            env, strategy, RANKS,
            HeatdisConfig(n_iters=N_ITERS, modeled_bytes_per_rank=16e6),
            INTERVAL, plan=plan, strict_monitor=True, monitor=suite,
        )
    return report, suite, list(suite._trace)


def run_elastic_monitored(n_ranks, plan):
    """PROTOCOLS.md §4 spare-exhaustion path: zero spares, shrink policy."""
    from repro.apps import HeatdisConfig
    from repro.apps.heatdis_elastic import make_elastic_heatdis_main
    from repro.fenix import FenixSystem
    from repro.mpi import World
    from tests.apps.conftest import app_cluster

    cluster = app_cluster(n_ranks)
    cluster.trace.enabled = True
    suite = MonitorSuite()
    suite.attach(cluster.trace)
    world = World(cluster, n_ranks)
    system = FenixSystem(world, n_spares=0, spare_policy="shrink")
    cfg = HeatdisConfig(local_rows=12 // n_ranks, cols=16,
                        modeled_bytes_per_rank=16e6, n_iters=30)
    main = make_elastic_heatdis_main(
        cfg, cluster, 12, n_ranks, 6, failure_plan=plan, results={},
    )

    def wrapped(rank):
        yield from system.run(world.context(rank), main)

    for r in range(n_ranks):
        world.spawn(r, wrapped(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    suite.finish()
    return suite, system, list(cluster.trace)


@pytest.fixture(scope="session")
def shrink_run():
    """Elastic heatdis, no spares, rank 1 killed -> shrink to 2 ranks."""
    return run_elastic_monitored(3, IterationFailure([(1, 17)]))


@pytest.fixture(scope="session")
def veloc_run():
    """Fenix+VeloC heatdis with rank 2 killed (flush/recover events)."""
    return run_monitored("fenix_veloc")


@pytest.fixture(scope="session")
def imr_run():
    """Fenix+KR+IMR heatdis with rank 1 killed (buddy events)."""
    return run_monitored("fenix_kr_imr", kill_rank=1)


def write_records(path, records, dropped=0, window=None):
    """Persist a record list as a flight-recorder file (via a live Trace)."""
    from repro.monitor.trace_io import write_trace
    from repro.sim.trace import Trace

    tr = Trace(enabled=True)
    for r in records:
        tr.emit(r.time, r.source, r.kind, **r.fields)
    tr.dropped = dropped
    if window is not None:
        tr._dropped_first, tr._dropped_last = window
    write_trace(str(path), tr)
    return str(path)


def tear(path, torn):
    """Copy ``path`` cut off halfway through its last line: what a writer
    that stopped mid-record leaves behind."""
    lines = open(path).readlines()
    with open(torn, "w") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])
    return str(torn)


@pytest.fixture(scope="session")
def veloc_trace_file(veloc_run, tmp_path_factory):
    """The veloc_run stream persisted as a trace file for CLI tests."""
    _, _, records = veloc_run
    path = tmp_path_factory.mktemp("traces") / "veloc.trace.jsonl"
    return write_records(path, records)
