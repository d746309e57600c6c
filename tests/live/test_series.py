"""Windowed series + the standard aggregator derivations."""

import math

import pytest

from repro.live.series import (
    STANDARD_SERIES,
    TimeSeriesAggregator,
    WindowedSeries,
)
from repro.monitor.state import ProtocolStateTracker
from repro.sim.trace import Trace
from repro.util.errors import ConfigError


def records(*emits):
    """Materialize (t, source, kind, fields) tuples as TraceRecords."""
    tr = Trace(enabled=True)
    for t, source, kind, fields in emits:
        tr.emit(t, source, kind, **fields)
    return list(tr)


class TestWindowedSeries:
    def test_tumbling_windows_fold_observations(self):
        s = WindowedSeries("x", window_s=1.0)
        for t, v in [(0.1, 1.0), (0.9, 3.0), (1.5, 5.0), (2.2, 2.0)]:
            s.observe(t, v)
        assert len(s.windows) == 3
        w0 = s.windows[0]
        assert (w0.count, w0.total, w0.vmin, w0.vmax) == (2, 4.0, 1.0, 3.0)
        assert (w0.first, w0.last) == (1.0, 3.0)
        assert s.latest() == 2.0

    def test_aggregations(self):
        s = WindowedSeries("x", window_s=1.0)
        for i in range(10):
            s.observe(float(i), float(i + 1))  # 1..10, one per window
        t = 9.0
        assert s.aggregate("last", t, 100.0) == 10.0
        assert s.aggregate("min", t, 100.0) == 1.0
        assert s.aggregate("max", t, 100.0) == 10.0
        assert s.aggregate("sum", t, 100.0) == 55.0
        assert s.aggregate("mean", t, 100.0) == 5.5
        assert s.aggregate("count", t, 100.0) == 10.0
        # growth = newest minus oldest inside the lookback
        assert s.aggregate("growth", t, 100.0) == 9.0
        # lookback clips: only the windows ending after t - 2.5 = 6.5,
        # i.e. [6,7) onward, whose oldest sample is 7.0
        assert s.aggregate("min", t, 2.5) == 7.0

    def test_percentiles_nearest_rank(self):
        s = WindowedSeries("x", window_s=1.0)
        for i in range(100):
            s.observe(0.5, float(i + 1))
        assert s.aggregate("p50", 1.0, 10.0) == 50.0
        assert s.aggregate("p95", 1.0, 10.0) == 95.0
        assert s.aggregate("p99", 1.0, 10.0) == 99.0

    def test_empty_lookback_is_none(self):
        s = WindowedSeries("x", window_s=1.0)
        assert s.latest() is None
        assert s.aggregate("last", 10.0, 5.0) is None
        assert s.aggregate("p99", 10.0, 5.0) is None
        assert s.aggregate("count", 10.0, 5.0) == 0.0
        s.observe(0.0, 1.0)
        # observation is outside the [8, 10] lookback
        assert s.aggregate("max", 10.0, 2.0) is None

    def test_memory_is_bounded(self):
        s = WindowedSeries("x", window_s=1.0, max_windows=8, max_samples=16)
        for i in range(1000):
            s.observe(float(i), float(i))
        assert len(s.windows) == 8
        assert len(s.samples) == 16
        assert s.total_count == 1000

    def test_unknown_aggregation_rejected(self):
        s = WindowedSeries("x")
        with pytest.raises(ConfigError):
            s.aggregate("p42", 0.0, 1.0)
        with pytest.raises(ConfigError):
            WindowedSeries("x", window_s=0.0)


class TestAggregator:
    def test_standard_series_exist(self):
        agg = TimeSeriesAggregator()
        assert tuple(agg.series) == STANDARD_SERIES

    def test_flush_backlog_tracks_submit_and_done(self):
        agg = TimeSeriesAggregator()
        agg.replay(records(
            (1.0, "veloc.server0", "flush_submit", {"nbytes": 100.0}),
            (1.1, "veloc.server0", "flush_submit", {"nbytes": 50.0}),
            (1.5, "veloc.server0", "flush_done", {"nbytes": 100.0}),
        ))
        assert agg.series["flush_backlog_bytes"].latest() == 50.0

    def test_checkpoint_overhead_percent(self):
        agg = TimeSeriesAggregator()
        agg.replay(records(
            (1.0, "veloc.rank0", "checkpoint", {"seconds": 0.05}),
            (2.0, "veloc.rank0", "checkpoint", {"seconds": 0.1}),
        ))
        # 0.1 s of checkpoint over a 1.0 s interval = 10%
        assert agg.series["checkpoint_share_pct"].latest() == \
            pytest.approx(10.0)
        # the first checkpoint has no predecessor: one observation only
        assert agg.series["checkpoint_share_pct"].total_count == 1

    def test_recovery_episode_kill_to_recover(self):
        agg = TimeSeriesAggregator()
        kill = records((4.0, "app.attempt1", "rank_killed", {"rank": 2}))
        agg.replay(kill)
        assert len(agg.state.failures) == 1
        agg.replay(records(
            (4.5, "veloc.rank2", "recover", {"version": 10})))
        assert agg.state.failures == []
        assert agg.series["kill_to_restore_s"].latest() == \
            pytest.approx(0.5)

    def test_alive_and_spare_population(self):
        stream = records(
            (0.0, "app.attempt1", "comm_create",
             {"members": [0, 1, 2, 3]}),
            (0.1, "fenix", "role",
             {"rank": 3, "role": "SPARE", "generation": 0}),
            (1.0, "app.attempt1", "rank_killed", {"rank": 1}),
            (1.0, "app.attempt1", "rank_dead", {"rank": 1}),
            (1.2, "fenix", "spare_activated",
             {"spare": 3, "replaces": 1}),
            (1.3, "fenix", "role",
             {"rank": 3, "role": "RECOVERED", "generation": 1}),
        )
        agg = TimeSeriesAggregator().replay(stream)
        assert agg.series["alive_ranks"].latest() == 3.0
        assert agg.series["spare_ranks"].latest() == 0.0
        # who is dead and who recovered is the state tracker's to say
        ranks = ProtocolStateTracker().replay(stream).ranks
        assert ranks[3].role == "RECOVERED" and ranks[3].alive
        assert not ranks[1].alive

    def test_a_dead_spare_is_no_spare(self):
        """Spare 4 is killed before any repair: the spare pool is empty,
        as the tracker the gauge reads says."""
        from repro.cli import build_job
        from repro.sim.failures import TimedFailure

        agg = TimeSeriesAggregator()
        build_job("heatdis", "fenix_kr_veloc", 4, 30, 10, spares=1)(
            plan=TimedFailure([(4, 4.0)]), trace_sink=agg)
        assert agg.series["spare_ranks"].latest() == 0.0
        assert agg.series["spare_ranks"].total_count == 2  # role, death
        assert agg.series["alive_ranks"].latest() == 4.0
        spare = agg.state.ranks[4]
        assert spare.role == "SPARE" and not spare.alive

    def test_dropped_records_series_follows_the_trace(self):
        tr = Trace(enabled=True, max_records=4)
        agg = TimeSeriesAggregator(trace=tr)
        tr.subscribe(agg.feed)
        for i in range(10):
            tr.emit(float(i), "engine", "tick", n=i)
        assert tr.dropped == 6
        assert agg.series["dropped_records"].latest() == 6.0

    def test_snapshot_is_json_shaped(self):
        agg = TimeSeriesAggregator()
        agg.replay(records(
            (1.0, "veloc.server0", "flush_submit", {"nbytes": 10.0})))
        snap = agg.snapshot()
        assert snap["records_seen"] == 1
        assert snap["series"]["flush_backlog_bytes"]["latest"] == 10.0
        assert snap["series"]["kill_to_restore_s"]["latest"] is None
        assert math.isfinite(snap["now"])

    def test_attach_replays_held_records_then_subscribes(self):
        tr = Trace(enabled=True)
        tr.emit(1.0, "veloc.server0", "flush_submit", nbytes=5.0)
        agg = TimeSeriesAggregator()
        agg.attach(tr)
        assert agg.records_seen == 1
        tr.emit(2.0, "veloc.server0", "flush_submit", nbytes=5.0)
        assert agg.records_seen == 2
        agg.detach()
        tr.emit(3.0, "veloc.server0", "flush_submit", nbytes=5.0)
        assert agg.records_seen == 2
