"""Live SLO rules wired through the harness, executor, and reports."""

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.live.rules import AlertRule, RuleSet
from repro.sim.failures import IterationFailure, NoFailures
from repro.sim.trace import Trace

RANKS = 4
INTERVAL = 10
CFG = HeatdisConfig(n_iters=30, modeled_bytes_per_rank=16e6)


def tight_rules():
    return RuleSet([AlertRule(
        name="recovery-latency-tight", metric="recovery_latency_s",
        op="<=", threshold=0.001, agg="p99", window_s=1e6,
        severity="critical")])


def run(rules=None, plan=None, trace_sink=None):
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    if plan is None:
        plan = IterationFailure.between_checkpoints(1, INTERVAL, 1)
    return run_heatdis_job(env, "fenix_kr_veloc", RANKS, CFG, INTERVAL,
                           plan=plan, rules=rules,
                           trace_sink=trace_sink)


class TestRulesOnTheReport:
    def test_tight_recovery_slo_fires_exactly_one_alert(self):
        report = run(rules=tight_rules())
        assert len(report.alerts) == 1
        alert = report.alerts[0]
        assert alert.rule == "recovery-latency-tight"
        assert alert.severity == "critical"
        assert alert.value > 0.001
        assert alert.records, "alert lost its causal record window"

    def test_rules_accepted_as_a_file_path(self):
        report = run(rules="examples/slo_rules.json")
        # a healthy single-kill recovery meets the shipped SLOs
        assert report.alerts == []

    def test_failure_free_run_fires_nothing(self):
        report = run(rules=tight_rules(), plan=NoFailures())
        assert report.alerts == []

    def test_no_rules_means_no_alerts_attribute_surprises(self):
        report = run()
        assert report.alerts == []
        assert report.warnings == []


class TestListenerIsolation:
    """A broken observer must never alter the run it observes."""

    def test_trace_isolates_and_counts_listener_exceptions(self):
        tr = Trace(enabled=True)
        seen = []
        tr.subscribe(lambda rec: 1 / 0)
        tr.subscribe(seen.append)
        rec = tr.emit(1.0, "engine", "tick")
        assert rec is not None  # emit survived the bad listener
        assert seen == [rec]    # later listeners still ran
        assert tr.listener_errors == 1
        assert "ZeroDivisionError" in tr.last_listener_error
        tr.clear()
        assert tr.listener_errors == 0

    def test_raising_listener_surfaces_as_report_warning(self):
        class BadSink:
            def attach(self, trace):
                trace.subscribe(self._boom)

            @staticmethod
            def _boom(rec):
                raise RuntimeError("observer bug")

        report = run(rules=tight_rules(), trace_sink=BadSink())
        # the run completed and the alert still fired ...
        assert report.wall_time > 0
        assert len(report.alerts) == 1
        # ... and the observer failure is surfaced, not swallowed silently
        assert len(report.warnings) == 1
        assert "listener exception(s) isolated" in report.warnings[0]
        assert "RuntimeError" in report.warnings[0]


class TestReportPropagation:
    def test_ledger_scorecard_and_flags_count_alerts(self):
        from repro.parallel.spec import CellResult, CellSpec, PlanSpec
        from repro.report.ledger import (
            CampaignLedger,
            RunRecord,
            build_scorecard,
            flag_anomalies,
        )

        env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
        report = run(rules=tight_rules())
        spec = CellSpec(app="heatdis", strategy="fenix_kr_veloc",
                        n_ranks=RANKS, config=CFG, ckpt_interval=INTERVAL,
                        env=env, plan=PlanSpec.none(), label="cell")
        record = RunRecord.from_cell_result(
            CellResult(spec=spec, report=report, failures=1), seed=2)
        assert record.alerts == 1
        assert RunRecord.from_dict(record.to_dict()).alerts == 1

        ledger = CampaignLedger()
        ledger.add_run(record)
        ledger.add_ideal(RANKS, report.wall_time / 2)
        card = build_scorecard(ledger)
        assert card["strategies"]["fenix_kr_veloc"]["total_alerts"] == 1
        flags = flag_anomalies(ledger)
        assert any("slo alerts" in f for f in flags)

    def test_progress_events_carry_the_alert_count(self):
        from repro.parallel.progress import CampaignProgress, ProgressSink

        class Capture(ProgressSink):
            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        sink = Capture()
        progress = CampaignProgress([sink], jobs=1)
        progress.add_cells(1)
        progress.cell_submitted()
        progress.cell_done(0, "cell", "fresh", host_seconds=0.1, alerts=3)
        (done,) = [e for e in sink.events if e["event"] == "cell_done"]
        assert done["alerts"] == 3
