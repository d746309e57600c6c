"""strict_monitor wiring in the harness runner."""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.monitor import (
    InvariantViolationError,
    MonitorSuite,
    ProtocolMonitor,
)
from repro.sim.failures import IterationFailure


class AlwaysViolate(ProtocolMonitor):
    """Flags the first record it sees -- exercises the strict path."""

    def feed(self, rec):
        if not self.violations:
            self.violate("always", "synthetic violation for testing", [rec])


def run_job(**kwargs):
    env = paper_env(3, n_spares=1, pfs_servers=2)
    plan = IterationFailure.between_checkpoints(1, 5, 1)
    return run_heatdis_job(
        env, "fenix_veloc", 2, HeatdisConfig(n_iters=12), 5,
        plan=plan, **kwargs,
    )


class TestStrictMode:
    def test_strict_raises_on_violation(self):
        suite = MonitorSuite([AlwaysViolate()])
        with pytest.raises(InvariantViolationError) as exc:
            run_job(strict_monitor=True, monitor=suite)
        assert "AlwaysViolate/always" in str(exc.value)

    def test_non_strict_reports_violations(self):
        suite = MonitorSuite([AlwaysViolate()])
        report = run_job(strict_monitor=False, monitor=suite)
        assert len(report.violations) == 1
        assert report.violations[0].rule == "always"

    def test_strict_clean_run_returns_report(self):
        # no explicit suite: strict mode auto-creates the standard one
        report = run_job(strict_monitor=True)
        assert report.failures == 1
        assert report.violations == []

    def test_default_off_means_no_monitoring_overhead(self):
        report = run_job()
        assert report.violations == []

