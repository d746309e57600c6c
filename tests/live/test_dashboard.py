"""Dashboard frame renderers (pure text, no terminal control)."""

from repro.live.dashboard import (
    CampaignView,
    progress_bar,
    render_campaign_frame,
    render_trace_frame,
    sparkline,
)
from repro.live.rules import Alert
from repro.live.series import TimeSeriesAggregator
from repro.sim.trace import Trace


def test_sparkline_scales_min_max():
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
    assert sparkline([]) == ""
    assert len(sparkline(list(range(100)), width=16)) == 16


def test_progress_bar_clamps():
    assert progress_bar(0.5, width=4) == "[##--]"
    assert progress_bar(-1.0, width=4) == "[----]"
    assert progress_bar(2.0, width=4) == "[####]"


PROGRESS_EVENTS = [
    {"event": "campaign_start", "total": 3, "jobs": 2, "schema": 1},
    {"event": "cell_done", "index": 0, "label": "kr_veloc/r4/s2",
     "state": "fresh", "host_seconds": 0.5, "alerts": 0, "completed": 1,
     "total": 3, "cache_hits": 0, "cache_misses": 1, "eta_s": 1.0,
     "utilization": 1.0},
    {"event": "cell_done", "index": 1, "label": "fenix/r4/s2",
     "state": "cached", "host_seconds": 0.0, "alerts": 2, "completed": 2,
     "total": 3, "cache_hits": 1, "cache_misses": 1, "eta_s": 0.5,
     "utilization": 0.5},
    {"event": "cell_done", "index": 2, "label": "fenix/r4/s3",
     "state": "failed", "host_seconds": 0.1, "alerts": 0, "completed": 3,
     "total": 3, "cache_hits": 1, "cache_misses": 2, "eta_s": 0.0,
     "utilization": 0.5},
    {"event": "campaign_end", "total": 3, "cached": 1, "fresh": 1,
     "failed": 1, "host_seconds": 0.7},
]


def test_campaign_view_folds_the_event_stream():
    view = CampaignView().replay(PROGRESS_EVENTS)
    assert (view.total, view.completed, view.done) == (3, 3, True)
    assert view.alerts_total == 2
    assert view.failed == 1
    assert len(view.recent) == 3


def test_campaign_frame_renders():
    view = CampaignView().replay(PROGRESS_EVENTS)
    frame = render_campaign_frame(view)
    assert "campaign done" in frame
    assert "3/3" in frame
    assert "alerts 2" in frame
    assert "kr_veloc/r4/s2" in frame
    assert "!2 alert(s)" in frame
    # frames respect the width budget
    assert all(len(line) <= 78 for line in frame.splitlines())
    empty = render_campaign_frame(CampaignView())
    assert "waiting for progress events" in empty


def test_trace_frame_renders_lanes_series_and_alerts():
    tr = Trace(enabled=True)
    agg = TimeSeriesAggregator()
    agg.attach(tr)
    tr.emit(0.0, "app.attempt1", "comm_create", members=[0, 1, 2, 3])
    tr.emit(0.1, "fenix", "role", rank=3, role="SPARE", generation=0)
    tr.emit(1.0, "veloc.rank0", "checkpoint", seconds=0.1, version=1)
    tr.emit(2.0, "veloc.rank0", "checkpoint", seconds=0.1, version=2)
    tr.emit(2.0, "veloc.rank1", "checkpoint", seconds=0.1, version=2)
    tr.emit(4.0, "app.attempt1", "rank_killed", rank=1)
    tr.emit(4.0, "app.attempt1", "rank_dead", rank=1)
    tr.emit(4.2, "fenix", "role", rank=2, role="RECOVERED", generation=1)
    alert = Alert(rule="tight", metric="kill_to_restore_s",
                  severity="critical", time=4.5, value=0.5,
                  threshold=0.001, op="<=", agg="p99")
    frame = render_trace_frame(agg, alerts=[alert],
                               meta={"dropped": 3})
    assert "records=8" in frame
    assert "open recoveries=1" in frame
    assert "ring=3" in frame
    # one glyph per rank, read off its protocol state
    assert "ranks [●✕◐○]" in frame
    # the rank that is not running gets its render_state columns
    assert "rank 1: DEAD, -, last ckpt v2, last restore -" in frame
    assert "rank 0:" not in frame
    assert "checkpoint_share_pct" in frame
    assert "alerts (1):" in frame and "tight" in frame
    assert all(len(line) <= 78 for line in frame.splitlines())
    # alert-free frames say so explicitly
    assert "alerts: none" in render_trace_frame(agg)
