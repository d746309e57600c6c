"""`repro.live check` window accounting: an empty trace or one shorter
than every rule window is reported as "no complete windows", never as a
spurious pass/fail."""

import json

import pytest

from repro.cli import EXIT_OK, EXIT_REGRESSION
from repro.live.__main__ import main
from repro.monitor.trace_io import write_trace
from repro.sim.trace import Trace

RULES = "examples/slo_rules.json"


@pytest.fixture()
def empty_trace_file(tmp_path):
    path = tmp_path / "empty.trace.jsonl"
    write_trace(str(path), Trace())
    return str(path)


@pytest.fixture()
def short_trace_file(tmp_path):
    """A healthy sliver of a trace: far shorter than the smallest
    shipped rule window (60 s), with nothing alert-worthy in it."""
    trace = Trace()
    for i in range(5):
        trace.emit(0.1 * i, "veloc.rank0", "checkpoint", version=i)
    path = tmp_path / "short.trace.jsonl"
    write_trace(str(path), trace)
    return str(path)


def test_empty_trace_reports_no_complete_windows(empty_trace_file, capsys):
    rc = main(["check", empty_trace_file, "--rules", RULES])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "0 records" in out
    assert "no complete windows" in out
    assert "the trace is empty" in out


def test_empty_trace_json_shape(empty_trace_file, capsys):
    rc = main(["check", empty_trace_file, "--rules", RULES, "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == 0
    assert doc["complete_windows"] is False
    assert doc["alerts"] == []


def test_short_clean_trace_is_labelled_partial(short_trace_file, capsys):
    rc = main(["check", short_trace_file, "--rules", RULES])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "no complete windows" in out
    assert "shorter than the smallest rule window" in out


def test_short_trace_json_flags_incomplete_windows(
        short_trace_file, capsys):
    rc = main(["check", short_trace_file, "--rules", RULES, "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete_windows"] is False


def test_short_trace_alerts_still_fire(kill_trace_file, tight_rules_file,
                                       capsys):
    """Partial evidence still convicts: a fired alert on a trace
    shorter than its rule's window keeps the failing exit code."""
    rc = main(["check", kill_trace_file, "--rules", tight_rules_file])
    assert rc == EXIT_REGRESSION
    assert "recovery-latency-tight" in capsys.readouterr().out


def test_spanning_trace_reports_complete_windows(tmp_path, capsys):
    """A clean trace longer than every rule window carries no partial-
    evidence caveat."""
    trace = Trace()
    for i in range(70):
        trace.emit(float(i), "veloc.rank0", "checkpoint", version=i)
    path = tmp_path / "long.trace.jsonl"
    write_trace(str(path), trace)
    rc = main(["check", str(path), "--rules", RULES, "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["complete_windows"] is True
    capsys.readouterr()
    rc = main(["check", str(path), "--rules", RULES])
    assert rc == EXIT_OK
    assert "no complete windows" not in capsys.readouterr().out
