"""The recovery walker walks a failure from kill to re-entry."""

import pytest

from repro.live.series import TimeSeriesAggregator
from repro.monitor.explain import episodes, explain_failure

from tests.monitor.conftest import run_monitored

STAGES = (
    "t0 failure",
    "t1 detection & revoke",
    "t2 repair-gate rendezvous",
    "t3 repair",
    "t4 roles & agreement",
    "t5 restore",
    "recompute",
    "re-entry",
)


@pytest.fixture(scope="module")
def relaunch_run():
    """KR+VeloC heatdis (fail-restart) with rank 2 killed."""
    return run_monitored("kr_veloc")


class TestRecoveryPath:
    def test_all_stages_present_in_order(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        positions = [text.index(f"-- {s}\n") for s in STAGES]
        assert positions == sorted(positions)
        assert text.index("recovery path:") > positions[-1]

    def test_header_names_the_failed_rank(self, veloc_run):
        _, _, records = veloc_run
        assert "recovery of rank 2 failure" in explain_failure(records)

    def test_spare_substitution_shown_in_repair_stage(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        t3 = text[text.index("t3 repair"):text.index("t4 roles")]
        assert "spare_activated" in t3
        assert "repair" in t3

    def test_restores_shown_before_reentry(self, imr_run):
        _, _, records = imr_run
        text = explain_failure(records)
        t5 = text[text.index("t5 restore"):text.index("-- re-entry")]
        # the recovered rank pulled its member back from the buddy
        assert "imr_restore" in t5
        assert "tier=buddy" in t5

    def test_rendezvous_lists_gate_arrivals(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records)
        t2 = text[text.index("t2 repair-gate"):text.index("t3 repair")]
        assert "gate_arrive" in t2


class TestRelaunch:
    def test_walks_the_relaunch(self, relaunch_run):
        _, _, records = relaunch_run
        text = explain_failure(records)
        assert "no repair found" not in text
        t3 = text[text.index("t3 relaunch"):text.index("t4 roles")]
        assert "attempt2" in t3 and "comm_create" in t3
        (ep,) = episodes(records)
        assert list(ep.by_layer())[0] == "process"
        assert ep.total == pytest.approx(sum(ep.by_layer().values()))

    def test_a_crash_cascade_is_one_failure(self, relaunch_run):
        # the kill and the three survivors that die of it (ProcFailedError)
        _, _, records = relaunch_run
        crashes = [r for r in records if r.kind == "rank_crashed"]
        assert len(crashes) == 3
        (ep,) = episodes(records)
        assert ep.kill.kind == "rank_killed"
        assert all(c in ep.stage("failure") for c in crashes)
        agg = TimeSeriesAggregator()
        agg.replay(records)
        assert agg.series["kill_to_restore_s"].total_count == 1


class TestSelection:
    def test_rank_filter(self, veloc_run):
        _, _, records = veloc_run
        assert "recovery of rank 2" in explain_failure(records, rank=2)
        assert "no failure found for rank 0" in explain_failure(records, rank=0)

    def test_occurrence_out_of_range(self, veloc_run):
        _, _, records = veloc_run
        text = explain_failure(records, rank=2, occurrence=5)
        assert "occurrence 5 out of range" in text

    def test_find_failures(self, veloc_run):
        _, _, records = veloc_run
        (ep,) = episodes(records)
        assert ep.kill.fields["rank"] == 2
        assert "no failure found for rank 3" in explain_failure(records,
                                                                 rank=3)


class TestDegenerateTraces:
    def test_truncated_trace_reports_missing_repair(self, veloc_run):
        _, _, records = veloc_run
        kill = episodes(records)[0].kill
        truncated = records[: records.index(kill) + 1]
        text = explain_failure(truncated)
        assert "no repair found after this failure" in text
        assert "not every participant re-entered" in text

    def test_empty_trace(self):
        assert "no failure found" in explain_failure([])
