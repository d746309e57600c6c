"""Trace recording tests."""

import pytest

from repro.sim import Trace
from repro.sim.trace import TraceListener
from repro.util.errors import ConfigError


def make_trace():
    tr = Trace()
    tr.emit(0.0, "fenix", "detect", rank=1)
    tr.emit(1.0, "veloc.rank0", "checkpoint", version=0, nbytes=100.0)
    tr.emit(2.0, "veloc.rank0", "checkpoint", version=1, nbytes=100.0)
    tr.emit(3.0, "fenix", "repair", generation=1)
    return tr


class TestTrace:
    def test_emit_and_len(self):
        assert len(make_trace()) == 4

    def test_filter_by_kind(self):
        tr = make_trace()
        assert len(tr.records(kind="checkpoint")) == 2

    def test_filter_by_source(self):
        tr = make_trace()
        assert len(tr.records(source="fenix")) == 2

    def test_predicate(self):
        tr = make_trace()
        late = tr.records(predicate=lambda r: r.time >= 2.0)
        assert len(late) == 2

    def test_first_last_count(self):
        tr = make_trace()
        assert tr.first("checkpoint")["version"] == 0
        assert tr.last("checkpoint")["version"] == 1
        assert tr.count("checkpoint") == 2
        assert tr.first("missing") is None
        assert tr.last("missing") is None

    def test_disabled_records_nothing(self):
        tr = Trace(enabled=False)
        tr.emit(0.0, "x", "y")
        assert len(tr) == 0

    def test_clear(self):
        tr = make_trace()
        tr.clear()
        assert len(tr) == 0

    def test_field_access(self):
        tr = make_trace()
        rec = tr.first("detect")
        assert rec["rank"] == 1
        assert rec.fields == {"rank": 1}


class TestRingBuffer:
    def test_unbounded_by_default(self):
        tr = Trace()
        for i in range(1000):
            tr.emit(float(i), "s", "k", i=i)
        assert len(tr) == 1000
        assert tr.dropped == 0

    def test_bounded_keeps_newest(self):
        tr = Trace(max_records=3)
        for i in range(10):
            tr.emit(float(i), "s", "k", i=i)
        assert len(tr) == 3
        assert [rec["i"] for rec in tr] == [7, 8, 9]

    def test_dropped_counter(self):
        tr = Trace(max_records=3)
        for i in range(10):
            tr.emit(float(i), "s", "k", i=i)
        assert tr.dropped == 7

    def test_no_drops_under_capacity(self):
        tr = Trace(max_records=5)
        tr.emit(0.0, "s", "k")
        tr.emit(1.0, "s", "k")
        assert tr.dropped == 0
        assert len(tr) == 2

    def test_clear_resets_dropped(self):
        tr = Trace(max_records=1)
        tr.emit(0.0, "s", "k")
        tr.emit(1.0, "s", "k")
        assert tr.dropped == 1
        tr.clear()
        assert tr.dropped == 0
        assert len(tr) == 0

    def test_disabled_bounded_trace_records_nothing(self):
        tr = Trace(enabled=False, max_records=2)
        for i in range(5):
            tr.emit(float(i), "s", "k")
        assert len(tr) == 0
        assert tr.dropped == 0

    def test_invalid_max_records(self):
        with pytest.raises(ConfigError):
            Trace(max_records=0)
        with pytest.raises(ConfigError):
            Trace(max_records=-5)

    def test_queries_see_only_retained(self):
        tr = Trace(max_records=2)
        tr.emit(0.0, "s", "old")
        tr.emit(1.0, "s", "new")
        tr.emit(2.0, "s", "newer")
        assert tr.first("old") is None
        assert tr.count("new") == 1
        assert tr.last("newer") is not None

    def test_dropped_window_bounds(self):
        tr = Trace(max_records=2)
        assert tr.dropped_window is None
        for i in range(5):
            tr.emit(float(i), "s", "k")
        # records at t=0,1,2 were evicted
        assert tr.dropped == 3
        assert tr.dropped_window == (0.0, 2.0)
        tr.clear()
        assert tr.dropped_window is None


class TestSubscription:
    def test_listener_sees_each_record(self):
        tr = Trace()
        seen = []
        tr.subscribe(seen.append)
        tr.emit(0.0, "s", "a")
        tr.emit(1.0, "s", "b")
        assert [r.kind for r in seen] == ["a", "b"]

    def test_unsubscribe_stops_delivery(self):
        tr = Trace()
        seen = []
        tr.subscribe(seen.append)
        tr.emit(0.0, "s", "a")
        tr.unsubscribe(seen.append)
        tr.emit(1.0, "s", "b")
        assert [r.kind for r in seen] == ["a"]

    def test_listener_receives_stored_record(self):
        """The delivered object is the stored record (seq assigned)."""
        tr = Trace()
        seen = []
        tr.subscribe(seen.append)
        rec = tr.emit(0.0, "s", "a")
        assert seen[0] is rec
        assert seen[0].seq == 1

    def test_disabled_trace_notifies_nobody(self):
        tr = Trace(enabled=False)
        seen = []
        tr.subscribe(seen.append)
        tr.emit(0.0, "s", "a")
        assert seen == []


class TestTraceListener:
    """The one attach / detach / replay, under every observer."""

    class Kinds(TraceListener):
        def __init__(self):
            self.kinds = []

        def feed(self, rec):
            self.kinds.append(rec.kind)

    def test_attach_feeds_what_the_trace_holds_then_follows_it(self):
        tr = make_trace()
        listener = self.Kinds().attach(tr)
        assert listener.kinds == ["detect", "checkpoint", "checkpoint",
                                  "repair"]
        tr.emit(4.0, "fenix", "role", rank=0)
        listener.detach()
        tr.emit(5.0, "fenix", "agree")
        assert listener.kinds[4:] == ["role"]

    def test_replay_needs_no_trace_and_chains(self):
        listener = self.Kinds()
        assert listener.replay(make_trace()) is listener
        assert len(listener.kinds) == 4
        listener.detach()  # never attached: nothing to leave

    def test_the_observers_share_it(self):
        from repro.live import LiveSession, TimeSeriesAggregator
        from repro.monitor import MonitorSuite
        from repro.monitor.trace_io import JsonlTraceSink

        for cls in (MonitorSuite, TimeSeriesAggregator, LiveSession,
                    JsonlTraceSink):
            assert issubclass(cls, TraceListener)
            assert not {"detach", "replay"} & set(vars(cls)), cls
        # the session alone extends attach: its drop series reads the trace
        assert [cls.__name__ for cls in (MonitorSuite, TimeSeriesAggregator,
                                         LiveSession, JsonlTraceSink)
                if "attach" in vars(cls)] == ["LiveSession"]


class TestSeqAndBrief:
    def test_seq_is_monotonic_across_eviction(self):
        tr = Trace(max_records=3)
        for i in range(7):
            tr.emit(float(i), "s", "k")
        assert [r.seq for r in tr] == [5, 6, 7]

    def test_brief(self):
        tr = Trace()
        rec = tr.emit(1.5, "fenix", "repair", generation=2)
        text = rec.brief()
        assert "#1" in text
        assert "t=1.5" in text
        assert "fenix" in text and "repair" in text
        assert "generation=2" in text


class TestKindIndex:
    def test_kinds_enumerates_live_kinds(self):
        tr = make_trace()
        assert set(tr.kinds()) == {"detect", "checkpoint", "repair"}

    def test_index_matches_scan_after_eviction(self):
        tr = Trace(max_records=10)
        for i in range(50):
            tr.emit(float(i), "s", "even" if i % 2 == 0 else "odd")
        for kind in ("even", "odd"):
            scan = [r for r in tr if r.kind == kind]
            assert tr.records(kind=kind) == scan
            assert tr.count(kind) == len(scan)
            assert tr.first(kind) is (scan[0] if scan else None)
            assert tr.last(kind) is (scan[-1] if scan else None)

    def test_fully_evicted_kind_disappears(self):
        tr = Trace(max_records=2)
        tr.emit(0.0, "s", "early")
        tr.emit(1.0, "s", "late")
        tr.emit(2.0, "s", "late")
        assert "early" not in tr.kinds()
        assert tr.count("early") == 0
