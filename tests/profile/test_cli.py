"""python -m repro.profile: both subcommands, drop exits."""

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
