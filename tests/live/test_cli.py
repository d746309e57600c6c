"""python -m repro.live: tail, check, export (exit codes + artifacts)."""

import json

from repro import cli
from repro.live.__main__ import main
from repro.live.openmetrics import parse_openmetrics, sanitize_name

EXIT_OK, EXIT_REGRESSION, EXIT_BAD_INPUT = 0, 1, 2


class TestCheck:
    def test_healthy_run_meets_the_example_rules(self, kill_trace_file,
                                                 capsys):
        rc = main(["check", kill_trace_file,
                   "--rules", "examples/slo_rules.json"])
        assert rc == EXIT_OK
        assert "0 alert(s)" in capsys.readouterr().out

    def test_tight_slo_fires_exactly_one_alert(self, kill_trace_file,
                                               tight_rules_file, capsys):
        rc = main(["check", kill_trace_file, "--rules", tight_rules_file,
                   "--json"])
        assert rc == EXIT_REGRESSION
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["alerts"]) == 1
        (alert,) = doc["alerts"]
        assert alert["rule"] == "recovery-latency-tight"
        assert alert["value"] > alert["threshold"]
        assert alert["records"], "alert lost its causal record window"
        assert doc["snapshot"]["records_seen"] == doc["records"]

    def test_bad_inputs_exit_2(self, kill_trace_file, tight_rules_file,
                               tmp_path, capsys):
        assert main(["check", str(tmp_path / "absent.jsonl"),
                     "--rules", tight_rules_file]) == EXIT_BAD_INPUT
        assert main(["check", kill_trace_file,
                     "--rules", str(tmp_path / "absent.json")]) \
            == EXIT_BAD_INPUT
        bad = tmp_path / "bad_rules.json"
        bad.write_text('{"rules": [{"name": "x"}]}')
        assert main(["check", kill_trace_file, "--rules", str(bad)]) \
            == EXIT_BAD_INPUT
        capsys.readouterr()


class TestExport:
    def test_trace_export_parses(self, kill_trace_file, tmp_path, capsys):
        out = tmp_path / "metrics.om"
        assert main(["export", kill_trace_file, "--out", str(out)]) \
            == EXIT_OK
        samples = parse_openmetrics(out.read_text())
        assert "repro_live_records_seen_total" in samples
        assert "repro_live_recovery_latency_s" in samples
        capsys.readouterr()

    def test_metrics_snapshot_export(self, tmp_path, capsys):
        snapshot = {"counters": {"mpi.ranks_died": 1},
                    "gauges": {}, "histograms": {}}
        src = tmp_path / "metrics.json"
        src.write_text(json.dumps(snapshot))
        out = tmp_path / "metrics.om"
        assert main(["export", str(src), "--out", str(out)]) == EXIT_OK
        samples = parse_openmetrics(out.read_text())
        assert samples["repro_mpi_ranks_died_total"] == [({}, 1.0)]
        capsys.readouterr()

    def test_telemetry_runs_own_metrics_export(self, tmp_path, capsys):
        """``telemetry run`` writes its snapshot under ``merged``, as a
        report's telemetry section does: every merged counter of either
        comes back out of the exposition."""
        run_dir = tmp_path / "run"
        assert cli.main(["telemetry", "run", "--ranks", "2", "--iters", "8",
                         "--interval", "4", "--kill-rank", "1",
                         "--out", str(run_dir)]) == EXIT_OK
        metrics = json.loads((run_dir / "metrics.json").read_text())
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"telemetry": metrics}))
        counters = metrics["merged"]["counters"]
        assert counters["mpi.ranks_died"] == 1
        for src in (run_dir / "metrics.json", report):
            out = tmp_path / "metrics.om"
            assert main(["export", str(src), "--out", str(out)]) == EXIT_OK
            samples = parse_openmetrics(out.read_text())
            assert {name: values for name, values in samples.items()
                    if name.endswith("_total")} == {
                f"repro_{sanitize_name(name)}_total": [({}, float(value))]
                for name, value in counters.items()}
        capsys.readouterr()

    def test_export_to_stdout_and_bad_input(self, kill_trace_file,
                                            tmp_path, capsys):
        assert main(["export", kill_trace_file]) == EXIT_OK
        text = capsys.readouterr().out
        parse_openmetrics(text)
        assert main(["export", str(tmp_path / "absent")]) == EXIT_BAD_INPUT
        capsys.readouterr()


class TestTail:
    def test_trace_mode_final_frame(self, kill_trace_file, tight_rules_file,
                                    tmp_path, capsys):
        out = tmp_path / "dashboard.txt"
        rc = main(["tail", kill_trace_file, "--once",
                   "--rules", tight_rules_file, "--out", str(out)])
        assert rc == EXIT_OK
        frame = out.read_text()
        assert "recovery_latency_s" in frame
        assert "recovery-latency-tight" in frame
        capsys.readouterr()

    def test_progress_mode_auto_detected(self, tmp_path, capsys):
        events = [
            {"event": "campaign_start", "total": 2, "jobs": 1, "schema": 1},
            {"event": "cell_done", "index": 0, "label": "a", "state":
             "fresh", "host_seconds": 0.1, "alerts": 1, "completed": 1,
             "total": 2, "cache_hits": 0, "cache_misses": 1,
             "eta_s": 0.1, "utilization": 1.0},
            {"event": "campaign_end", "total": 2, "cached": 0, "fresh": 2,
             "failed": 0, "host_seconds": 0.2},
        ]
        path = tmp_path / "progress.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        out = tmp_path / "frame.txt"
        assert main(["tail", str(path), "--once", "--out", str(out)]) \
            == EXIT_OK
        frame = out.read_text()
        assert "campaign done" in frame
        assert "alerts 1" in frame
        capsys.readouterr()

    def test_tail_tolerates_torn_lines(self, kill_trace_file, tmp_path,
                                       capsys):
        # truncate the recording mid-line, as a tailer of a live file
        # would see it
        lines = open(kill_trace_file).readlines()
        torn = tmp_path / "torn.jsonl"
        with open(torn, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])
        assert main(["tail", str(torn), "--once"]) == EXIT_OK
        assert main(["tail", str(tmp_path / "absent"), "--once"]) \
            == EXIT_BAD_INPUT
        capsys.readouterr()
