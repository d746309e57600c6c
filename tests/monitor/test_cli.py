"""Flight-recorder CLI: check / state / explain, exit codes, --json."""

import json

import pytest

from repro.monitor.__main__ import main
from tests.monitor.conftest import tear, write_records


class TestCheck:
    def test_clean_trace_exits_zero(self, veloc_trace_file, capsys):
        assert main(["check", veloc_trace_file]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_json_report(self, veloc_trace_file, capsys):
        assert main(["check", veloc_trace_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        assert doc["dropped"] == 0

    def test_corrupted_trace_exits_one(self, veloc_run, tmp_path, capsys):
        _, _, clean = veloc_run
        records = [r for r in clean if r.kind != "revoke"]
        path = write_records(tmp_path / "bad.trace.jsonl", records)
        assert main(["check", path]) == 1
        assert "ULFMOrderMonitor" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        assert main(["check", str(path)]) == 2

    def test_dropped_window_warning(self, veloc_run, tmp_path, capsys):
        _, _, records = veloc_run
        path = write_records(tmp_path / "dropped.trace.jsonl", records,
                             dropped=7, window=(0.5, 1.5))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "dropped 7" in out
        assert "0.5" in out and "1.5" in out

    def test_torn_final_line_is_reported_like_drops(self, veloc_trace_file,
                                                     tmp_path, capsys):
        """A recording cut off mid-record: every whole record is checked,
        and monitor, live and align each say a line was torn."""
        from repro.align.__main__ import main as align_main
        from repro.live.__main__ import main as live_main

        torn = tear(veloc_trace_file, tmp_path / "torn.trace.jsonl")
        whole = len(open(veloc_trace_file).readlines()) - 2  # meta, torn
        assert main(["check", torn]) == 0
        assert "ends in 1 torn line(s)" in capsys.readouterr().out
        assert main(["check", torn, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["torn"] == 1

        rules = "examples/slo_rules.json"
        assert live_main(["check", torn, "--rules", rules]) == 0
        out = capsys.readouterr().out
        assert f"{whole} records" in out and "1 torn line(s)" in out
        assert live_main(["check", torn, "--rules", rules, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["torn"] == 1

        # the record that was being written is missing from run B
        assert align_main(["diff", veloc_trace_file, torn]) == 1
        assert "note: run B's trace file ends in 1 torn line(s)" \
            in capsys.readouterr().out

    def test_live_run_with_save_trace(self, tmp_path, capsys):
        path = tmp_path / "live.trace.jsonl"
        rc = main([
            "check", "--app", "heatdis", "--strategy", "fenix_veloc",
            "--ranks", "2", "--iters", "12", "--interval", "5",
            "--kill-rank", "1", "--save-trace", str(path),
        ])
        assert rc == 0
        assert path.exists()
        # the saved trace replays clean through the same CLI
        assert main(["check", str(path)]) == 0

    def test_save_trace_of_a_trace_file_is_a_usage_error(
            self, veloc_trace_file, tmp_path, capsys):
        """Only a live run records: replaying a file with --save-trace
        would silently write nothing."""
        path = tmp_path / "copy.trace.jsonl"
        assert main(["check", veloc_trace_file,
                     "--save-trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "--save-trace" in captured.err
        assert not path.exists()

    def test_live_unknown_strategy_exits_two(self, capsys):
        rc = main(["check", "--strategy", "no_such_strategy",
                   "--ranks", "2", "--iters", "4"])
        assert rc == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestState:
    def test_state_table(self, veloc_trace_file, capsys):
        assert main(["state", veloc_trace_file, "--at", "4.0"]) == 0
        out = capsys.readouterr().out
        assert "INITIAL" in out
        assert "SPARE" in out

    def test_state_end_of_trace(self, veloc_trace_file, capsys):
        assert main(["state", veloc_trace_file]) == 0
        # by the end, the spare has been substituted in for dead rank 2
        assert "RECOVERED" in capsys.readouterr().out


class TestExplain:
    def test_explain_renders_recovery(self, veloc_trace_file, capsys):
        assert main(["explain", veloc_trace_file, "--rank", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery of rank 2 failure" in out
        assert "t3 repair" in out
        assert "re-entry" in out

    def test_explain_unknown_rank(self, veloc_trace_file, capsys):
        assert main(["explain", veloc_trace_file, "--rank", "9"]) == 0
        assert "no failure found for rank 9" in capsys.readouterr().out

    def test_explain_discloses_evicted_records(self, veloc_run, tmp_path,
                                               capsys):
        # a ring-buffered flight recorder: everything before the kill's
        # detection was evicted, and the header says so
        _, _, records = veloc_run
        cut = next(i for i, r in enumerate(records) if r.kind == "revoke")
        path = write_records(tmp_path / "ring.trace.jsonl", records[cut:],
                             dropped=cut,
                             window=(records[0].time, records[cut - 1].time))
        for selection in ([], ["--rank", "2"], ["--rank", "9"]):
            assert main(["explain", path, *selection]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"trace_dropped: {cut} records evicted")


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
