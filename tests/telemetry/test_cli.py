"""CLI tests: run/validate/diff subcommands exercised in-process."""

import json

import pytest

from repro.telemetry.__main__ import main


class TestRunCommand:
    def test_run_exports_valid_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run1"
        rc = main([
            "run", "--app", "heatdis", "--strategy", "fenix_veloc",
            "--ranks", "4", "--iters", "20", "--interval", "10",
            "--bytes", "4e6", "--kill-rank", "2",
            "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "wall=" in captured
        trace = json.loads((out / "trace.json").read_text())
        assert trace["traceEvents"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["merged"]["counters"]["mpi.ranks_died"] == 1
        assert metrics["run"]["strategy"] == "fenix_veloc"

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        rc = main(["run", "--strategy", "nope", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestDiffCommand:
    def _write(self, path, counters):
        doc = {"merged": {"counters": counters, "gauges": {},
                          "histograms": {}}}
        path.write_text(json.dumps(doc))

    def test_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write(a, {"x": 1.0})
        assert main(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_differing_fails_at_default_tolerance(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, {"x": 1.0})
        self._write(b, {"x": 2.0, "y": 5.0})
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "counter:x" in out
        assert "absent -> 5" in out
        assert "OVER-BUDGET" in out

    def test_within_tolerance_passes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, {"x": 100.0})
        self._write(b, {"x": 104.0})  # 3.8% relative to max(|a|,|b|)
        assert main(["diff", str(a), str(b), "--tolerance", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "OVER-BUDGET" not in out
        assert "all metrics within the 0.05 budget" in out

    def test_beyond_tolerance_fails(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, {"x": 100.0})
        self._write(b, {"x": 120.0})
        assert main(["diff", str(a), str(b), "--tolerance", "0.05"]) == 1
        assert "OVER-BUDGET" in capsys.readouterr().out

    def test_absent_metric_always_out_of_tolerance(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, {"x": 1.0, "gone": 3.0})
        self._write(b, {"x": 1.0})
        assert main(["diff", str(a), str(b), "--tolerance", "0.5"]) == 1
        assert "3 -> absent" in capsys.readouterr().out
