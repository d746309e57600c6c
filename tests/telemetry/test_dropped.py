"""Ring-buffer-dropped traces, end to end.

``tests/telemetry/test_export.py`` covers drop annotations on synthetic
traces; these tests run a *real* failing job with a tiny
``trace_max_records`` and assert the whole observability path -- Chrome
export, the recovery walk, the profile flame stacks -- stays valid and
says so, instead of silently presenting a truncated story.
"""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.monitor.explain import explain_failure
from repro.monitor.trace_io import trace_meta
from repro.sim.failures import IterationFailure
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    chrome_trace_events,
    to_chrome_trace,
    validate_chrome_trace,
)

#: small enough that a 4-rank failing run must evict records
TINY_BUFFER = 8


def run_failing_job(max_records=TINY_BUFFER):
    tel = Telemetry(enabled=True)
    env = paper_env(5, n_spares=1, pfs_servers=2)
    cfg = HeatdisConfig(n_iters=20, modeled_bytes_per_rank=4e6)
    plan = IterationFailure.between_checkpoints(2, 5, 1)
    report = run_heatdis_job(env, "fenix_kr_veloc", 4, cfg, 5, plan=plan,
                             telemetry=tel, trace_max_records=max_records)
    return tel, report


@pytest.fixture(scope="module")
def dropped_run():
    tel, report = run_failing_job()
    assert tel.trace is not None
    assert tel.trace.dropped > 0, "job too small to overflow the buffer"
    return tel, report


class TestEndToEndDrops:
    def test_job_survives_ring_buffer_mode(self, dropped_run):
        _tel, report = dropped_run
        assert report.failures >= 1
        assert report.wall_time > 0

    def test_chrome_export_carries_drop_marker_and_validates(
            self, dropped_run):
        tel, _ = dropped_run
        doc = to_chrome_trace(tel, trace=tel.trace)
        assert validate_chrome_trace(doc) == []
        drops = [e for e in doc["traceEvents"]
                 if e.get("name") == "trace_dropped"]
        assert len(drops) == 1
        assert drops[0]["args"]["dropped"] == tel.trace.dropped

    def test_drop_window_matches_trace(self, dropped_run):
        tel, _ = dropped_run
        (ev,) = [e for e in chrome_trace_events(tel, trace=tel.trace)
                 if e.get("name") == "trace_dropped"]
        assert ev["args"]["window"] == list(tel.trace.dropped_window)

    def test_failure_timeline_discloses_eviction(self, dropped_run):
        tel, _ = dropped_run
        text = explain_failure(tel.trace, trace_meta(tel.trace))
        assert text.startswith("trace_dropped")
        assert f"{tel.trace.dropped} records evicted" in text

    def test_selection_does_not_hide_annotation(self, dropped_run):
        tel, _ = dropped_run
        for selection in ({"rank": 9}, {"occurrence": 5}):
            text = explain_failure(tel.trace, trace_meta(tel.trace),
                                   **selection)
            assert text.startswith("trace_dropped")

    def test_unbounded_trace_same_job_has_no_drops(self):
        tel, _ = run_failing_job(max_records=None)
        assert tel.trace.dropped == 0
        assert "trace_dropped" not in explain_failure(
            tel.trace, trace_meta(tel.trace))


class TestDropsInDownstreamLayers:
    def test_flame_stacks_unaffected_by_legacy_trace_drops(
            self, dropped_run):
        # folded stacks come from the span stream, not the legacy ring
        # buffer; drops there must not corrupt the flame graph
        from repro.profile.flamegraph import folded_stacks

        tel, _ = dropped_run
        stacks = folded_stacks(tel)
        assert stacks
        assert all(weight >= 0 for weight in stacks.values())

    def test_exemplar_artifacts_render_on_dropped_trace(self,
                                                        dropped_run):
        # the campaign report embeds exactly these two artifacts; both
        # must render (with the disclosure) even on an evicting buffer
        from repro.profile.flamegraph import folded_stacks, format_folded

        tel, _ = dropped_run
        walk = explain_failure(tel.trace, trace_meta(tel.trace))
        folded = format_folded(folded_stacks(tel))
        assert "trace_dropped" in walk
        assert folded.strip()
