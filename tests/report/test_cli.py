"""`python -m repro.report` end-to-end: run, render, scorecard, diff.

One small seeded campaign (module-scoped) feeds every subcommand test;
the run itself doubles as the acceptance check that the live-progress
JSONL reconciles exactly with the ledger.  ``diff`` is the one budget
gate, so it is also held to the cases of the metrics and profile-ledger
gates it replaced.
"""

import json
import re

import pytest

from repro.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_REGRESSION
from repro.report.__main__ import main
from repro.report.ledger import CampaignLedger
from repro.telemetry import Telemetry, write_metrics

RUN_ARGS = ["run", "--seeds", "2,3", "--ranks", "4", "--iters", "24",
            "--max-failures", "2", "--jobs", "2", "--no-exemplars",
            "--bench", ""]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("report-out")
    cache = tmp_path_factory.mktemp("cache")
    code = main([*RUN_ARGS, "--out", str(out), "--cache-dir", str(cache)])
    assert code == EXIT_OK
    return out


class TestRun:
    def test_artifacts_written(self, campaign):
        for name in ("report.html", "campaign.json", "scorecard.json",
                     "progress.jsonl"):
            assert (campaign / name).exists(), name

    def test_progress_jsonl_reconciles_with_ledger(self, campaign):
        """The acceptance criterion: one cell_done per ledger run."""
        events = [json.loads(line) for line in
                  (campaign / "progress.jsonl").read_text().splitlines()]
        ledger = CampaignLedger.load(campaign / "campaign.json")
        done = [e for e in events if e["event"] == "cell_done"]
        assert len(done) == ledger.cells()
        (start,) = [e for e in events if e["event"] == "campaign_start"]
        assert start["jobs"] == 2
        (end,) = [e for e in events if e["event"] == "campaign_end"]
        assert end["total"] == ledger.cells()
        assert end["cached"] + end["fresh"] + end["failed"] == \
            ledger.cells()
        # per-event invariants of the stream contract
        for e in done:
            assert e["state"] in ("cached", "fresh", "failed")
            assert 0.0 <= e["utilization"] <= 1.0

    def test_ledger_provenance_matches_stream(self, campaign):
        ledger = CampaignLedger.load(campaign / "campaign.json")
        assert ledger.progress["cells"] == ledger.cells()
        assert (ledger.progress["cache_hits"]
                + ledger.progress["cache_misses"]) == ledger.cells()

    def test_multi_seed_multi_strategy_cis(self, campaign):
        sc = json.loads((campaign / "scorecard.json").read_text())
        strategies = sc["strategies"]
        assert set(strategies) == {"kr_veloc", "fenix_kr_veloc"}
        for entry in strategies.values():
            assert entry["n_runs"] == 2  # two seeds
            for metric in ("overhead_pct", "recovery_latency_s"):
                m = entry["metrics"][metric]
                assert m["n"] > 0
                assert m["ci_lo"] <= m["mean"] <= m["ci_hi"]

    def test_html_is_self_contained(self, campaign):
        html = (campaign / "report.html").read_text()
        assert not re.search(r'(?:src|href)\s*=\s*"https?:', html)
        assert "kr_veloc" in html and "<svg" in html


class TestRender:
    def test_render_from_ledger(self, campaign, tmp_path):
        out = tmp_path / "r.html"
        assert main(["render", str(campaign / "campaign.json"),
                     "--out", str(out)]) == EXIT_OK
        assert "<svg" in out.read_text()

    def test_bad_ledger_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["render", str(bad), "--out",
                     str(tmp_path / "r.html")]) == EXIT_BAD_INPUT


class TestScorecard:
    def test_prints_and_writes_json(self, campaign, tmp_path, capsys):
        out = tmp_path / "sc.json"
        assert main(["scorecard", str(campaign / "campaign.json"),
                     "--json", str(out)]) == EXIT_OK
        assert "Resilience scorecard" in capsys.readouterr().out
        assert "strategies" in json.loads(out.read_text())


class TestDiff:
    def test_identical_passes(self, campaign, capsys):
        sc = str(campaign / "scorecard.json")
        assert main(["diff", sc, sc]) == EXIT_OK
        assert "within the" in capsys.readouterr().out

    def test_accepts_ledger_as_either_side(self, campaign):
        assert main(["diff", str(campaign / "scorecard.json"),
                     str(campaign / "campaign.json")]) == EXIT_OK

    def test_regression_past_budget_fails(self, campaign, tmp_path,
                                          capsys):
        sc = json.loads((campaign / "scorecard.json").read_text())
        m = sc["strategies"]["kr_veloc"]["metrics"]["recovery_latency_s"]
        m["mean"] *= 2.0
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(sc))
        code = main(["diff", str(campaign / "scorecard.json"),
                     str(worse), "--budget", "0.10"])
        assert code == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "kr_veloc.recovery_latency_s.mean" in captured.out
        assert "OVER-BUDGET" in captured.out

    def test_tolerance_is_refused(self, campaign, capsys):
        sc = str(campaign / "scorecard.json")
        with pytest.raises(SystemExit) as exit_:
            main(["diff", sc, sc, "--tolerance", "0.10"])
        assert exit_.value.code == EXIT_BAD_INPUT
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unreadable_input_exits_two(self, campaign, tmp_path):
        assert main(["diff", str(tmp_path / "missing.json"),
                     str(campaign / "scorecard.json")]) == EXIT_BAD_INPUT


def metrics(**counters):
    return {"merged": {"counters": counters, "gauges": {},
                       "histograms": {}}}


def ledger(**mean):
    base = {c: 0.0 for c in ("compute", "app_mpi_wait", "idle")}
    base.update(mean)
    return {"schema": 1, "mean": base, "mean_makespan": sum(base.values())}


def write_exported_metrics(path):
    """A ``metrics.json`` as ``telemetry run`` writes it."""
    tel = Telemetry(enabled=True)
    tel.inc("mpi.messages", 12)
    tel.set_gauge("veloc.backlog", 3.0)
    tel.observe("veloc.checkpoint_s", 0.25)
    write_metrics(str(path), tel, run_info={"strategy": "fenix_veloc"})


#: case -> (baseline, current, extra argv, exit code, texts on stdout);
#: the ``metrics-*`` cases were ``telemetry diff``'s, ``ledger-*``
#: ``profile diff``'s, and each keeps the exit code it had there
DIFF_CASES = {
    "metrics-identical": (
        metrics(x=1.0), metrics(x=1.0), [], EXIT_OK, ["within"]),
    "metrics-differing-fails-at-default-budget": (
        metrics(x=1.0), metrics(x=2.0, y=5.0), [], EXIT_REGRESSION,
        ["counter:x", "absent -> 5", "OVER-BUDGET"]),
    "metrics-within-budget": (
        metrics(x=100.0), metrics(x=104.0), ["--budget", "0.05"], EXIT_OK,
        ["telemetry metrics: all rows within the 0.05 budget"]),
    "metrics-beyond-budget": (
        metrics(x=100.0), metrics(x=120.0), ["--budget", "0.05"],
        EXIT_REGRESSION, ["OVER-BUDGET"]),
    "metrics-absent-always-fails": (
        metrics(x=1.0, gone=3.0), metrics(x=1.0), ["--budget", "0.5"],
        EXIT_REGRESSION, ["3 -> absent"]),
    "ledger-within-budget": (
        ledger(compute=1.00), ledger(compute=1.02), ["--budget", "0.05"],
        EXIT_OK, ["within"]),
    "ledger-over-budget": (
        ledger(compute=1.00), ledger(compute=1.10), ["--budget", "0.05"],
        EXIT_REGRESSION, ["OVER-BUDGET"]),
    "ledger-small-categories-ignored": (
        ledger(idle=1e-6), ledger(idle=5e-4), ["--budget", "0.05"],
        EXIT_OK, []),
    "ledger-bad-file": (
        None, ledger(compute=1.0), [], EXIT_BAD_INPUT, []),
    "metrics-json-pair": (
        "metrics.json", "metrics.json", [], EXIT_OK, ["within"]),
    "mixed-kinds": (
        ledger(compute=1.0), metrics(x=1.0), [], EXIT_BAD_INPUT, []),
}


@pytest.mark.parametrize("case", DIFF_CASES)
def test_diff_exit_code(case, tmp_path, capsys):
    base, cur, extra, code, texts = DIFF_CASES[case]
    paths = []
    for side, doc in (("base", base), ("cur", cur)):
        path = tmp_path / f"{side}.json"  # doc None: a missing file
        if doc == "metrics.json":
            write_exported_metrics(path)
        elif doc is not None:
            path.write_text(json.dumps(doc))
        paths.append(str(path))
    assert main(["diff", *paths, *extra]) == code
    captured = capsys.readouterr()
    for text in texts:
        assert text in captured.out
    if code == EXIT_BAD_INPUT:
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
