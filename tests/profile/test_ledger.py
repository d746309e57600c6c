"""Ledger attribution: conservation, identity, priority, and drops."""

import pytest

from repro.harness.report import (
    HEATDIS_CATEGORIES,
    report_to_dict,
    summarize_categories,
)
from repro.profile import build_ledger, format_ledger
from repro.profile.categories import (
    APP_MPI,
    CATEGORIES,
    COMPUTE,
    FAILURE_DETECTION,
    FLUSH_CONGESTION,
    IDLE,
    KR_RESTORE,
    RECOMPUTE,
    VELOC_RECOVER,
)
from repro.sim.trace import Trace
from repro.telemetry import Telemetry

from tests.profile.conftest import KILL_RANK, RANKS

REL_TOL = 1e-9


class _Clock:
    def __init__(self):
        self.now = 0.0


def synthetic_tel():
    """A telemetry whose tracer is driven by a hand-cranked clock."""
    tel = Telemetry(enabled=True)
    clock = _Clock()
    tel.tracer.bind(clock)
    return tel, clock


def span(tel, clock, source, start, end, name, **fields):
    clock.now = start
    with tel.span(source, name, **fields) as rec:
        clock.now = end
    return rec


def assert_conserved(ledger):
    for rank, rl in ledger.ranks.items():
        assert abs(rl.residual) <= REL_TOL * max(1.0, rl.makespan), (
            f"rank {rank}: residual {rl.residual}"
        )


class TestSyntheticLedger:
    def test_priority_recompute_absorbs_nested_compute(self):
        tel, clock = synthetic_tel()
        span(tel, clock, "rank0", 0.0, 10.0, "compute", kind="app_compute")
        rec = span(tel, clock, "rank0", 10.0, 20.0, "recompute")
        # nested compute/mpi inside the recompute window
        inner = span(tel, clock, "rank0", 12.0, 16.0, "compute",
                     kind="app_compute")
        inner.parent = rec.sid
        ledger = build_ledger(tel)
        rl = ledger.ranks[0]
        assert rl.get(RECOMPUTE) == pytest.approx(10.0)
        assert rl.get(COMPUTE) == pytest.approx(10.0)
        assert_conserved(ledger)

    def test_congestion_moved_to_data_layer(self):
        tel, clock = synthetic_tel()
        span(tel, clock, "rank0", 0.0, 10.0, "compute",
             kind="app_compute", congestion=2.0)
        ledger = build_ledger(tel)
        rl = ledger.ranks[0]
        assert rl.get(FLUSH_CONGESTION) == pytest.approx(2.0)
        assert rl.get(COMPUTE) == pytest.approx(8.0)
        assert_conserved(ledger)

    def test_errored_mpi_wait_splits_at_death(self):
        tel, clock = synthetic_tel()
        clock.now = 5.0
        tel.instant("rank1", "rank_killed")
        rec = span(tel, clock, "rank0", 0.0, 8.0, "mpi.recv")
        rec.error = "MPIError"
        ledger = build_ledger(tel)
        rl = ledger.ranks[0]
        assert rl.get(APP_MPI) == pytest.approx(5.0)
        assert rl.get(FAILURE_DETECTION) == pytest.approx(3.0)
        assert_conserved(ledger)

    def test_uncovered_time_is_idle(self):
        tel, clock = synthetic_tel()
        span(tel, clock, "rank0", 0.0, 1.0, "compute", kind="app_compute")
        span(tel, clock, "rank0", 4.0, 5.0, "compute", kind="app_compute")
        ledger = build_ledger(tel)
        rl = ledger.ranks[0]
        assert rl.get(IDLE) == pytest.approx(3.0)
        assert rl.makespan == pytest.approx(5.0)
        assert_conserved(ledger)

    def test_layer_track_uses_wrank(self):
        tel, clock = synthetic_tel()
        span(tel, clock, "rank7", 0.0, 1.0, "compute", kind="app_compute")
        # replacement world rank 7 recovering under veloc identity 2
        span(tel, clock, "veloc.rank2", 1.0, 3.0, "veloc.recover", wrank=7)
        ledger = build_ledger(tel)
        assert 2 not in ledger.ranks
        assert ledger.ranks[7].get(VELOC_RECOVER) == pytest.approx(2.0)

    def test_disabled_telemetry_rejected(self):
        from repro.telemetry.collector import NULL_TELEMETRY

        with pytest.raises(ValueError):
            build_ledger(NULL_TELEMETRY)
        with pytest.raises(ValueError):
            build_ledger(None)

    def test_drops_surfaced_in_ledger_and_report(self):
        tel, clock = synthetic_tel()
        span(tel, clock, "rank0", 0.0, 1.0, "compute", kind="app_compute")
        trace = Trace(enabled=True, max_records=1)
        trace.emit(0.1, "rank0", "a")
        trace.emit(0.2, "rank0", "b")
        ledger = build_ledger(tel, trace=trace)
        assert ledger.dropped == 1
        assert not ledger.complete
        assert ledger.dropped_window == (0.1, 0.1)
        text = format_ledger(ledger)
        assert "WARNING" in text and "dropped" in text
        assert ledger.to_dict()["dropped"] == 1


class TestFailureRunLedger:
    def test_report_carries_profile(self, fig5_run):
        _, report = fig5_run
        assert report.profile is not None
        assert report.profile["schema"] == 1
        assert report.profile["n_ranks"] == RANKS + 1  # spare included

    def test_every_second_attributed(self, fig5_run):
        tel, report = fig5_run
        ledger = build_ledger(tel, wall_time=report.wall_time)
        assert_conserved(ledger)
        # the serialized form conserves too
        for rank, entry in report.profile["ranks"].items():
            total = sum(entry["categories"].values())
            assert total == pytest.approx(entry["makespan"], rel=1e-9), rank
        mean = report.profile["mean"]
        assert sum(mean.values()) == pytest.approx(
            report.profile["mean_makespan"], rel=1e-9
        )
        assert set(mean) == set(CATEGORIES)

    def test_replacement_owns_its_recovery_seconds(self, fig5_run):
        tel, report = fig5_run
        ranks = report.profile["ranks"]
        # the spare (world rank RANKS) adopted rank 2's checkpoint id but
        # its recovery time must land on its own physical timeline
        repl = ranks[str(RANKS)]["categories"]
        dead = ranks[str(KILL_RANK)]["categories"]
        assert repl[VELOC_RECOVER] > 0.0
        assert dead[VELOC_RECOVER] == 0.0

    def test_survivors_recompute_attributed(self, fig5_run):
        _, report = fig5_run
        ranks = report.profile["ranks"]
        for r in range(RANKS):
            if r == KILL_RANK:
                continue
            assert ranks[str(r)]["categories"][RECOMPUTE] > 0.0, r
        # the dead process never reached the rollback
        assert ranks[str(KILL_RANK)]["categories"][RECOMPUTE] == 0.0

    def test_kr_restore_stage_present(self, fig5_run):
        _, report = fig5_run
        mean = report.profile["mean"]
        assert mean[KR_RESTORE] > 0.0

    def test_dead_rank_timeline_ends_at_kill(self, fig5_run):
        tel, report = fig5_run
        kill = tel.tracer.first("rank_killed", source=f"rank{KILL_RANK}")
        entry = report.profile["ranks"][str(KILL_RANK)]
        assert entry["end"] == pytest.approx(kill.start)

    def test_summarize_built_from_ledger_conserves_wall(self, fig5_run):
        _, report = fig5_run
        row = summarize_categories(report)
        assert set(row) == set(HEATDIS_CATEGORIES)
        assert sum(row.values()) == pytest.approx(report.wall_time)
        mean = report.profile["mean"]
        assert row["data_recovery"] == pytest.approx(
            mean[KR_RESTORE] + mean[VELOC_RECOVER]
        )
        assert row["recompute"] == pytest.approx(mean[RECOMPUTE])

    def test_report_to_dict_includes_profile(self, fig5_run):
        _, report = fig5_run
        doc = report_to_dict(report)
        assert doc["profile"] is report.profile


class TestCleanRunLedger:
    def test_no_recovery_categories(self, clean_run):
        _, report = clean_run
        mean = report.profile["mean"]
        assert mean[RECOMPUTE] == 0.0
        assert mean[VELOC_RECOVER] == 0.0
        assert mean[FAILURE_DETECTION] == 0.0

    def test_conserves(self, clean_run):
        tel, report = clean_run
        assert_conserved(build_ledger(tel, wall_time=report.wall_time))


class TestPartialRollbackLedger:
    def test_survivor_replay_is_recompute_not_compute(self, partial_run):
        """Under recovered_only scope the survivors still re-execute the
        interrupted region body; that work must be charged to recompute
        even though it is made of ordinary compute/mpi spans."""
        tel, report = partial_run
        assert_conserved(build_ledger(tel, wall_time=report.wall_time))
        recompute_ranks = {
            int(s.source[len("rank"):])
            for s in tel.tracer.find(name="recompute")
        }
        assert recompute_ranks, "no recompute spans recorded"
        ranks = report.profile["ranks"]
        for r in recompute_ranks:
            entry = ranks[str(r)]["categories"]
            assert entry[RECOMPUTE] > 0.0, r
        # nested compute inside any recompute window never leaks into
        # the compute category: recompute covers at least the nested
        # compute seconds
        for s in tel.tracer.find(name="recompute"):
            rank = int(s.source[len("rank"):])
            nested = [
                c for c in tel.tracer.spans
                if c.name == "compute" and c.source == s.source
                and s.start <= c.start and c.end is not None
                and c.end <= s.end
            ]
            nested_time = sum(c.end - c.start for c in nested)
            assert ranks[str(rank)]["categories"][RECOMPUTE] >= (
                nested_time - 1e-9
            )
