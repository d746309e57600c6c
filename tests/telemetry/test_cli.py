"""CLI tests: run/validate subcommands exercised in-process."""

import json

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
