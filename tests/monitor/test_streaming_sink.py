"""JsonlTraceSink: records reach disk as emitted, meta lines anywhere."""

import json

import pytest

from repro.monitor.trace_io import (
    JsonlTraceSink,
    load_trace,
    read_trace,
    write_trace,
)
from repro.sim.trace import Trace
from repro.util.errors import ConfigError
from tests.monitor.conftest import tear


def test_records_land_per_emit(tmp_path):
    path = tmp_path / "stream.jsonl"
    tr = Trace(enabled=True)
    sink = JsonlTraceSink(str(path), trace=tr)
    assert sink.records_written == 0

    tr.emit(0.1, "engine", "tick", n=1)
    assert sink.records_written == 1
    # readable mid-run: a tailer sees the record before the run ends
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["meta"]["streaming"] is True
    assert json.loads(lines[1])["kind"] == "tick"

    tr.emit(0.2, "engine", "tick", n=2)
    sink.close()
    records, meta = read_trace(str(path))
    assert [r.fields["n"] for r in records] == [1, 2]
    assert meta["dropped"] == 0


def test_attach_replays_records_emitted_before_the_sink(tmp_path):
    tr = Trace(enabled=True)
    tr.emit(0.1, "engine", "early")
    path = tmp_path / "stream.jsonl"
    with JsonlTraceSink(str(path)) as sink:
        sink.attach(tr)
        assert sink.records_written == 1
        tr.emit(0.2, "engine", "late")
    records, _ = read_trace(str(path))
    assert [r.kind for r in records] == ["early", "late"]
    # closing unsubscribed the sink: later emits don't resurrect the file
    tr.emit(0.3, "engine", "after")
    assert len(read_trace(str(path))[0]) == 2


def test_trailing_meta_wins_and_restores_drop_accounting(tmp_path):
    path = tmp_path / "stream.jsonl"
    tr = Trace(enabled=True, max_records=2)
    with JsonlTraceSink(str(path), trace=tr):
        for i in range(5):
            tr.emit(float(i), "engine", "tick", n=i)
    # the streamed file holds ALL 5 records (the sink saw each emit even
    # though the in-memory ring only retains the last 2) ...
    records, meta = read_trace(str(path))
    assert len(records) == 5
    # ... and the trailing meta carries the ring's final drop accounting
    assert meta["dropped"] == 3
    assert meta["dropped_window"] == [0.0, 2.0]

    loaded = load_trace(str(path))
    assert loaded.dropped == 3
    assert loaded.dropped_window == (0.0, 2.0)


def test_a_torn_final_line_keeps_every_whole_record(tmp_path):
    tr = Trace(enabled=True)
    for i in range(3):
        tr.emit(float(i), "engine", "tick", n=i)
    whole = tmp_path / "whole.jsonl"
    write_trace(str(whole), tr)
    records, meta = read_trace(tear(whole, tmp_path / "torn.jsonl"))
    assert [r.fields["n"] for r in records] == [0, 1]
    assert meta["torn"] == 1
    assert "torn" not in read_trace(str(whole))[1]


def test_an_unparseable_line_that_is_not_the_last_is_an_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"seq": 1, "time": 0.0, "source": "engine",
                       "kind": "tick"})
    path.write_text(f"{good}\n{good[:10]}\n{good}\n")
    with pytest.raises(ConfigError, match=":2: not valid JSON"):
        read_trace(str(path))
    # nothing whole before it: not a trace at all
    path.write_text(good[:10])
    with pytest.raises(ConfigError, match=":1: not valid JSON"):
        read_trace(str(path))


def test_sampled_out_round_trips_through_write_trace(tmp_path):
    from repro.telemetry import SamplingPolicy, SpanSampler

    tr = Trace(enabled=True, sampler=SpanSampler(
        SamplingPolicy(head=1, stride=10)))
    for i in range(20):
        tr.emit(float(i), "kr.rank0", "kr_region_begin", iteration=i)
    assert tr.sampled_out > 0
    path = tmp_path / "sampled.jsonl"
    write_trace(str(path), tr)
    loaded = load_trace(str(path))
    assert loaded.sampled_out == tr.sampled_out
    assert loaded.sampled_window == tr.sampled_window
