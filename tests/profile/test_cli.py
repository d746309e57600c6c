"""python -m repro.profile: all three subcommands, drop/budget exits."""

import json

import pytest

from repro.profile.__main__ import main

RUN = ["--strategy", "fenix_kr_veloc", "--ranks", "4",
       "--kill-rank", "2", "--iters", "30", "--interval", "10"]


class TestReport:
    def test_report_writes_ledger_json(self, tmp_path, capsys):
        out = tmp_path / "ledger.json"
        assert main(["report", *RUN, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "makespan" in text and "mean" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["dropped"] == 0
        assert sum(doc["mean"].values()) == pytest.approx(
            doc["mean_makespan"], rel=1e-9
        )

    def test_report_fails_on_drops(self, capsys):
        args = ["report", *RUN, "--max-records", "40"]
        assert main(args) == 1
        assert "dropped" in capsys.readouterr().err
        assert main([*args, "--allow-drops"]) == 0

    def test_unknown_strategy_rejected(self, capsys):
        assert main(["report", "--strategy", "nope"]) == 2


class TestFlamegraph:
    def test_flamegraph_writes_folded(self, tmp_path, capsys):
        out = tmp_path / "profile.folded"
        assert main(["flamegraph", *RUN, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


class TestDiff:
    def _ledger(self, path, mean):
        base = {c: 0.0 for c in ("compute", "app_mpi_wait", "idle")}
        base.update(mean)
        path.write_text(json.dumps({"schema": 1, "mean": base,
                                    "mean_makespan": sum(base.values())}))
        return str(path)

    def test_within_budget(self, tmp_path, capsys):
        a = self._ledger(tmp_path / "a.json", {"compute": 1.00})
        b = self._ledger(tmp_path / "b.json", {"compute": 1.02})
        assert main(["diff", a, b, "--budget", "0.05"]) == 0
        assert "within" in capsys.readouterr().out

    def test_over_budget_fails(self, tmp_path, capsys):
        a = self._ledger(tmp_path / "a.json", {"compute": 1.00})
        b = self._ledger(tmp_path / "b.json", {"compute": 1.10})
        assert main(["diff", a, b, "--budget", "0.05"]) == 1
        captured = capsys.readouterr()
        assert "OVER-BUDGET" in captured.out

    def test_small_categories_ignored(self, tmp_path):
        a = self._ledger(tmp_path / "a.json", {"idle": 1e-6})
        b = self._ledger(tmp_path / "b.json", {"idle": 5e-4})
        assert main(["diff", a, b, "--budget", "0.05"]) == 0

    def test_bad_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        good = self._ledger(tmp_path / "a.json", {"compute": 1.0})
        assert main(["diff", missing, good]) == 2
