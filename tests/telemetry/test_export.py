"""Exporter tests: Chrome trace-event JSON, validator, drop disclosure."""

import json

from repro.monitor.explain import explain_failure
from repro.monitor.trace_io import trace_meta
from repro.report.compare import METRICS, diff_rows
from repro.sim.trace import Trace
from repro.telemetry.collector import Telemetry
from repro.telemetry.export import (
    chrome_trace_events,
    metrics_to_dict,
    to_chrome_trace,
    track_for_source,
    validate_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0


def make_telemetry():
    tel = Telemetry(enabled=True)
    clock = FakeClock()
    tel.bind(clock)
    with tel.span("rank0", "veloc.checkpoint", version=1):
        clock.now = 0.5
    tel.instant("rank1", "rank_killed")
    clock.now = 1.0
    with tel.span("rank1", "recompute", iteration=7):
        clock.now = 2.0
    return tel, clock


class TestTrackFolding:
    def test_rank_sources_fold(self):
        assert track_for_source("veloc.rank3") == "rank3"
        assert track_for_source("imr.rank12") == "rank12"
        assert track_for_source("kr.rank0") == "rank0"
        assert track_for_source("rank4") == "rank4"

    def test_non_rank_sources_untouched(self):
        assert track_for_source("fenix") == "fenix"
        assert track_for_source("veloc.server2") == "veloc.server2"
        assert track_for_source("engine") == "engine"


class TestChromeExport:
    def test_metadata_names_tracks(self):
        tel, _ = make_telemetry()
        events = chrome_trace_events(tel)
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert names == ["rank0", "rank1"]

    def test_span_becomes_complete_event(self):
        tel, _ = make_telemetry()
        events = chrome_trace_events(tel)
        xs = [e for e in events if e["ph"] == "X"]
        ckpt = next(e for e in xs if e["name"] == "veloc.checkpoint")
        assert ckpt["ts"] == 0.0
        assert ckpt["dur"] == 0.5e6  # seconds -> microseconds
        assert ckpt["args"]["version"] == 1

    def test_instant_event(self):
        tel, _ = make_telemetry()
        events = chrome_trace_events(tel)
        kill = next(e for e in events if e["name"] == "rank_killed")
        assert kill["ph"] == "i"
        assert kill["s"] == "t"

    def test_unterminated_span_extends_to_end(self):
        tel = Telemetry(enabled=True)
        clock = FakeClock()
        tel.bind(clock)
        tel.span("rank0", "hung").__enter__()  # never exited
        clock.now = 4.0
        tel.instant("rank0", "late")
        events = chrome_trace_events(tel)
        hung = next(e for e in events if e["name"] == "hung")
        assert hung["dur"] == 4.0e6
        assert hung["args"]["unterminated"] is True

    def test_legacy_trace_records_included(self):
        tel, _ = make_telemetry()
        trace = Trace()
        trace.emit(0.25, "veloc.rank0", "checkpoint", version=1)
        events = chrome_trace_events(tel, trace=trace)
        legacy = [e for e in events if e.get("cat") == "trace"]
        assert len(legacy) == 1
        # folded onto rank0's track
        rank0_tid = next(
            e["tid"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "rank0"
        )
        assert legacy[0]["tid"] == rank0_tid

    def test_document_round_trips_and_validates(self, tmp_path):
        tel, _ = make_telemetry()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(path, tel, run_info={"app": "test"})
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["app"] == "test"

    def test_non_serializable_fields_coerced(self, tmp_path):
        tel = Telemetry(enabled=True)
        tel.bind(FakeClock())
        tel.instant("rank0", "e", key=("veloc", 3), data={1: {2, 3}})
        doc = to_chrome_trace(tel)
        json.dumps(doc)  # must not raise


class TestValidator:
    def test_accepts_own_output(self):
        tel, _ = make_telemetry()
        assert validate_chrome_trace(to_chrome_trace(tel)) == []

    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]

    def test_rejects_bad_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]}
        assert any("bad phase" in e for e in validate_chrome_trace(doc))

    def test_rejects_complete_without_dur(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": 1.0}
        ]}
        assert any("dur" in e for e in validate_chrome_trace(doc))

    def test_rejects_instant_without_scope(self):
        doc = {"traceEvents": [
            {"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": 1.0}
        ]}
        assert any("scope" in e for e in validate_chrome_trace(doc))


def metrics_diff(a, b):
    """The budget gate's rows between two exported metrics documents."""
    return diff_rows(METRICS, METRICS.rows(metrics_to_dict(a)),
                     METRICS.rows(metrics_to_dict(b)), 0.0)


class TestMetricsExport:
    """What ``metrics_to_dict`` writes is what ``report diff`` reads."""

    def test_diff_detects_changes(self):
        a = Telemetry(enabled=True)
        b = Telemetry(enabled=True)
        a.inc("x", 1)
        b.inc("x", 2)
        b.set_gauge("g", 5)
        rows = metrics_diff(a, b)
        keys = [d.name for d in rows]
        assert "counter:x" in keys
        assert "gauge:g.high" in keys
        absent = next(d for d in rows if d.name == "gauge:g.high")
        assert absent.baseline is None and absent.current == 5.0

    def test_diff_identical_is_empty(self):
        a = Telemetry(enabled=True)
        a.inc("x", 1)
        assert metrics_diff(a, a) == []


class TestDroppedAnnotations:
    def make_dropped_trace(self):
        trace = Trace(max_records=2)
        for i in range(5):
            trace.emit(float(i), "world", "rank_killed", rank=i)
        return trace  # t=0,1,2 evicted; window (0.0, 2.0)

    def test_chrome_export_emits_trace_dropped_instant(self):
        tel, _ = make_telemetry()
        trace = self.make_dropped_trace()
        events = chrome_trace_events(tel, trace=trace)
        drops = [e for e in events if e.get("name") == "trace_dropped"]
        assert len(drops) == 1
        ev = drops[0]
        assert ev["ph"] == "i" and ev["s"] == "g"
        assert ev["args"]["dropped"] == 3
        assert ev["args"]["window"] == [0.0, 2.0]
        assert ev["ts"] == 2.0 * 1e6

    def test_chrome_export_validates_with_drop_marker(self):
        tel, _ = make_telemetry()
        doc = to_chrome_trace(tel, trace=self.make_dropped_trace())
        assert validate_chrome_trace(doc) == []

    def test_no_marker_without_drops(self):
        tel, _ = make_telemetry()
        trace = Trace()
        trace.emit(0.0, "world", "rank_killed", rank=0)
        events = chrome_trace_events(tel, trace=trace)
        assert not any(e.get("name") == "trace_dropped" for e in events)

    def test_timeline_annotation_row(self):
        # the recovery walk says what the ring evicted before anything else
        trace = self.make_dropped_trace()
        text = explain_failure(trace, trace_meta(trace))
        assert text.startswith("trace_dropped: 3 records evicted in "
                               "t=[0.000000, 2.000000]")

    def test_annotation_survives_failure_filter(self):
        # the walk keeps only the failure's protocol records
        trace = self.make_dropped_trace()
        trace.emit(5.0, "rank0", "unrelated_marker")
        text = explain_failure(trace, trace_meta(trace))
        assert "unrelated_marker" not in text
        assert "trace_dropped" in text

    def test_annotation_survives_sources_filter(self):
        # selecting a rank (with or without a failure) keeps it too
        trace = self.make_dropped_trace()
        for rank in (3, 0):
            text = explain_failure(trace, trace_meta(trace), rank=rank)
            assert text.startswith("trace_dropped")
        assert "no failure found for rank 0" in text
