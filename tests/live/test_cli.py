"""python -m repro.live: tail and check (exit codes + artifacts)."""

import json

from repro.live.__main__ import main
from repro.monitor.__main__ import main as monitor_main

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


class TestTail:
    def test_trace_mode_final_frame(self, kill_trace_file, tight_rules_file,
                                    tmp_path, capsys):
        out = tmp_path / "dashboard.txt"
        rc = main(["tail", kill_trace_file, "--once",
                   "--rules", tight_rules_file, "--out", str(out)])
        assert rc == EXIT_OK
        frame = out.read_text()
        assert "kill_to_restore_s" in frame
        assert "recovery-latency-tight" in frame
        capsys.readouterr()

    def test_after_a_relaunch_the_strip_is_the_new_world(self, tmp_path,
                                                          capsys):
        """Fail-restart under ``kr_veloc``: the strip shows attempt 2's
        four living ranks, not the first world's kill."""
        trace = str(tmp_path / "relaunch.trace.jsonl")
        assert monitor_main(["check", "--strategy", "kr_veloc", "--ranks",
                             "4", "--kill-rank", "1", "--save-trace",
                             trace]) == EXIT_OK
        capsys.readouterr()
        assert main(["tail", trace, "--once"]) == EXIT_OK
        (strip,) = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("ranks [")]
        assert strip.split("]")[0] == "ranks [●●●●"

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
            # a well-formed record missing a field the strip reads
            fh.write(json.dumps({"time": 9.0, "source": "x",
                                 "kind": "rank_dead"}) + "\n")
            fh.write(lines[-1][: len(lines[-1]) // 2])
        assert main(["tail", str(torn), "--once"]) == EXIT_OK
        assert main(["tail", str(tmp_path / "absent"), "--once"]) \
            == EXIT_BAD_INPUT
        capsys.readouterr()
