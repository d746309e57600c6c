"""End-to-end telemetry: a failure-injection run exports a valid Chrome
trace with the failure protocol in causal order on the right tracks."""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.monitor.explain import explain_failure
from repro.sim.failures import IterationFailure
from repro.telemetry import (
    Telemetry,
    to_chrome_trace,
    validate_chrome_trace,
)

RANKS = 4
INTERVAL = 10
KILL_RANK = 2


@pytest.fixture(scope="module")
def telemetered_run():
    """One Fenix+VeloC heatdis job with a single injected kill."""
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    cfg = HeatdisConfig(n_iters=30, modeled_bytes_per_rank=16e6)
    plan = IterationFailure.between_checkpoints(KILL_RANK, INTERVAL, 1)
    tel = Telemetry(enabled=True)
    report = run_heatdis_job(env, "fenix_veloc", RANKS, cfg, INTERVAL,
                             plan=plan, telemetry=tel)
    return tel, report


class TestAcceptanceTrace:
    def test_run_completed_with_one_failure(self, telemetered_run):
        tel, report = telemetered_run
        assert report.failures == 1
        assert report.attempts == 1  # Fenix repairs in place

    def test_export_validates(self, telemetered_run):
        tel, report = telemetered_run
        doc = to_chrome_trace(tel, trace=tel.trace)
        assert validate_chrome_trace(doc) == []
        assert len(doc["traceEvents"]) > 20

    def test_failure_protocol_causal_order(self, telemetered_run):
        """kill <= revoke <= shrink <= agree <= recover <= recompute."""
        tr = (telemetered_run[0]).tracer
        kill = tr.first("rank_killed", source=f"rank{KILL_RANK}")
        revoke = tr.first("revoke", source="mpi")
        shrink = tr.first("fenix.shrink", source="fenix")
        agree = tr.first("fenix.agree", source="fenix")
        recover = tr.first("veloc.recover")
        recompute = tr.first("recompute")
        for rec in (kill, revoke, shrink, agree, recover, recompute):
            assert rec is not None
        assert kill.start <= revoke.start <= shrink.start <= agree.start
        assert agree.start <= recover.start
        assert recover.start <= recompute.start

    def test_recovery_spans_on_rank_tracks(self, telemetered_run):
        tr = (telemetered_run[0]).tracer
        # every active rank recovers data, then recomputes on its own track
        recover_ranks = {
            r.source for r in tr.find(name="veloc.recover")
        }
        assert f"veloc.rank{KILL_RANK}" in recover_ranks
        recompute_ranks = {r.source for r in tr.find(name="recompute")}
        # the dead process never recomputes; its replacement (the spare,
        # world rank RANKS) does, on its own physical track
        assert f"rank{KILL_RANK}" not in recompute_ranks
        assert f"rank{RANKS}" in recompute_ranks
        # the replacement pulled from the PFS; survivors from scratch
        replacement = [
            r for r in tr.find(name="veloc.recover",
                               source=f"veloc.rank{KILL_RANK}")
        ]
        assert replacement[0].fields["tier"] == "pfs"

    def test_repair_span_closed_with_role(self, telemetered_run):
        tr = (telemetered_run[0]).tracer
        repairs = tr.find(name="fenix.repair")
        assert repairs and all(not r.open for r in repairs)
        roles = tr.find(name="fenix.role")
        assert any(r.fields["role"] == "RECOVERED" for r in roles)
        assert any(r.fields["role"] == "SURVIVOR" for r in roles)

    def test_spare_activation_recorded(self, telemetered_run):
        tel, _ = telemetered_run
        acts = tel.tracer.find(name="fenix.spare_activated")
        assert len(acts) == 1
        assert acts[0].fields["replaces"] == KILL_RANK
        # satellite: legacy trace event too
        assert tel.trace.count("spare_activated") == 1

    def test_kr_trace_events_absent_for_manual_strategy(self, telemetered_run):
        """fenix_veloc is the manual integration -- no KR regions."""
        tel, _ = telemetered_run
        assert tel.trace.count("kr_region_begin") == 0

    def test_metrics_in_report(self, telemetered_run):
        tel, report = telemetered_run
        assert report.telemetry is not None
        merged = report.telemetry["merged"]
        assert merged["counters"]["mpi.ranks_died"] == 1
        assert merged["counters"]["mpi.revokes"] >= 1
        assert merged["counters"]["fenix.repairs"] == 1
        assert merged["counters"]["recompute.iterations"] > 0
        assert merged["counters"]["veloc.checkpoint.bytes"] > 0
        hist = merged["histograms"]["veloc.checkpoint.latency"]
        assert hist["count"] >= RANKS
        assert "fenix.spare_pool_depth" in merged["gauges"]

    def test_failure_timeline_renders(self, telemetered_run):
        tel, _ = telemetered_run
        text = explain_failure(tel.trace)
        assert "rank_killed" in text
        assert "revoke" in text
        assert "rank4 recompute" in text  # the spare re-runs the lost work


class TestKRStrategyTrace:
    def test_kr_region_events_and_spans(self):
        env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
        cfg = HeatdisConfig(n_iters=30, modeled_bytes_per_rank=8e6)
        # die after checkpoint 1 so a restorable version exists
        plan = IterationFailure.between_checkpoints(1, INTERVAL, 1)
        tel = Telemetry(enabled=True)
        report = run_heatdis_job(env, "fenix_kr_veloc", RANKS, cfg, INTERVAL,
                                 plan=plan, telemetry=tel)
        assert report.failures == 1
        # satellite: KR checkpoint-region begin/commit trace events
        begins = tel.trace.count("kr_region_begin")
        commits = tel.trace.count("kr_region_commit")
        assert begins > 0
        assert 0 < commits < begins
        spans = tel.tracer.find(name="kr.region")
        assert spans
        commits_spans = tel.tracer.find(name="kr.commit")
        assert commits_spans
        # commits nest inside their region span
        region_ids = {s.sid for s in spans}
        assert all(c.parent in region_ids for c in commits_spans)
        restores = tel.tracer.find(name="kr.restore")
        assert restores
        doc = to_chrome_trace(tel, trace=tel.trace)
        assert validate_chrome_trace(doc) == []


class TestIMRStrategyTrace:
    def test_imr_buddy_events(self):
        env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
        cfg = HeatdisConfig(n_iters=30, modeled_bytes_per_rank=8e6)
        # die after checkpoint 1 so the replacement restores from its buddy
        plan = IterationFailure.between_checkpoints(1, INTERVAL, 1)
        tel = Telemetry(enabled=True)
        run_heatdis_job(env, "fenix_kr_imr", RANKS, cfg, INTERVAL,
                        plan=plan, telemetry=tel)
        # satellite: buddy send on store, buddy recv on the replacement's
        # restore path
        assert tel.trace.count("imr_buddy_send") > 0
        assert tel.trace.count("imr_buddy_recv") > 0
        stores = tel.tracer.find(name="imr.store")
        restores = tel.tracer.find(name="imr.restore")
        assert stores and restores
        merged = tel.merged_metrics()
        assert merged.counter("imr.store.bytes").value > 0
        assert merged.counter("imr.restore.buddy").value >= 1


class TestDisabledTelemetry:
    def test_run_without_telemetry_records_nothing(self):
        from repro.telemetry.collector import NULL_TELEMETRY

        env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
        cfg = HeatdisConfig(n_iters=10, modeled_bytes_per_rank=4e6)
        before = len(NULL_TELEMETRY.tracer)
        report = run_heatdis_job(env, "fenix_veloc", RANKS, cfg, INTERVAL)
        assert report.telemetry is None
        assert len(NULL_TELEMETRY.tracer) == before
        assert len(NULL_TELEMETRY.metrics) == 0
