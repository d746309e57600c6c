"""Shared recorded failure run for the repro.live tests.

One small Fenix+VeloC job with a single injected kill, persisted as a
flight-recorder file; the CLI, rules, and dashboard tests all replay
the same stream.
"""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.monitor import MonitorSuite
from repro.monitor.trace_io import write_trace
from repro.sim.failures import IterationFailure

RANKS = 4
INTERVAL = 10
N_ITERS = 30


@pytest.fixture(scope="session")
def kill_run():
    """One monitored kill-and-recover job; returns (report, suite)."""
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    plan = IterationFailure.between_checkpoints(1, INTERVAL, 1)
    suite = MonitorSuite()
    report = run_heatdis_job(
        env, "fenix_kr_veloc", RANKS,
        HeatdisConfig(n_iters=N_ITERS, modeled_bytes_per_rank=16e6),
        INTERVAL, plan=plan, strict_monitor=True, monitor=suite,
    )
    return report, suite


@pytest.fixture(scope="session")
def kill_records(kill_run):
    _, suite = kill_run
    return list(suite._trace)


@pytest.fixture(scope="session")
def kill_trace_file(kill_run, tmp_path_factory):
    """The run's stream persisted as a flight-recorder file."""
    _, suite = kill_run
    path = tmp_path_factory.mktemp("live") / "kill.trace.jsonl"
    write_trace(str(path), suite._trace)
    return str(path)


@pytest.fixture()
def tight_rules_file(tmp_path):
    """A recovery-latency SLO no kill-and-recover run can meet."""
    path = tmp_path / "tight.json"
    path.write_text(
        '{"rules": [{"name": "recovery-latency-tight",'
        ' "metric": "kill_to_restore_s", "agg": "p99",'
        ' "op": "<=", "threshold": 0.001, "window_s": 1e6,'
        ' "severity": "critical"}]}'
    )
    return str(path)
