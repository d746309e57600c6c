"""Determinism-audit wiring through the harness, executor, cache,
ledger, scorecard, and HTML report."""

import dataclasses
import json

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.parallel.cache import RunCache, cache_key
from repro.parallel.spec import CellSpec, PlanSpec, execute_cell
from repro.report.html import render_html
from repro.report.ledger import (
    CampaignLedger,
    RunRecord,
    build_scorecard,
    flag_anomalies,
    format_scorecard,
)
from repro.sim.failures import IterationFailure

from tests.align.conftest import INTERVAL, N_ITERS, RANKS


def make_spec(**overrides):
    kwargs = dict(
        app="heatdis",
        strategy="fenix_kr_veloc",
        n_ranks=RANKS,
        config=HeatdisConfig(n_iters=N_ITERS,
                             modeled_bytes_per_rank=16e6),
        ckpt_interval=INTERVAL,
        env=paper_env(RANKS + 1, n_spares=1, pfs_servers=2),
        plan=PlanSpec.between_checkpoints(2, INTERVAL, 1),
        label="audited",
    )
    kwargs.update(overrides)
    return CellSpec(**kwargs)


# -- harness -------------------------------------------------------------


def test_harness_audit_replays_the_seeded_cell():
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    report = run_heatdis_job(
        env, "fenix_kr_veloc", RANKS,
        HeatdisConfig(n_iters=N_ITERS, modeled_bytes_per_rank=16e6),
        INTERVAL, plan=IterationFailure.between_checkpoints(2, INTERVAL, 1),
        determinism_audit=True,
    )
    assert report.divergences == []
    assert not any("diverged" in w for w in report.warnings)


def test_audit_off_leaves_report_empty():
    env = paper_env(RANKS + 1, n_spares=1, pfs_servers=2)
    report = run_heatdis_job(
        env, "fenix_kr_veloc", RANKS,
        HeatdisConfig(n_iters=N_ITERS, modeled_bytes_per_rank=16e6),
        INTERVAL,
    )
    assert report.divergences == []


def test_audit_flags_a_replay_that_only_differs_in_its_report(monkeypatch):
    """The same records at other simulated seconds: the alignment sees
    nothing (it compares neither times nor ``seconds``), the reports do."""
    from repro.align.engine import align
    from repro.harness import runner

    runners = []

    def skewed_runner(env, *args, **kwargs):
        if runners:
            # the second construction is the replay: put it on a platform
            # that launches half a second slower, so every record shifts
            # and none changes
            env = dataclasses.replace(
                env, costs=runner.JobCosts(mpirun_launch=2.5))
        runners.append(JobRunner(env, *args, **kwargs))
        return runners[-1]

    JobRunner = runner.JobRunner
    monkeypatch.setattr(runner, "JobRunner", skewed_runner)
    report = run_heatdis_job(
        paper_env(RANKS + 1, n_spares=1, pfs_servers=2), "fenix_kr_veloc",
        RANKS, HeatdisConfig(n_iters=N_ITERS, modeled_bytes_per_rank=16e6),
        INTERVAL, plan=IterationFailure.between_checkpoints(2, INTERVAL, 1),
        determinism_audit=True,
    )
    primary, replay = runners
    assert not align(list(primary.trace), list(replay.trace)).divergent
    assert len(report.divergences) == 1
    drift = report.divergences[0]
    assert (drift["category"], drift["layer"], drift["key"]["kind"]) \
        == ("value", "app", "run_report")
    assert "wall_time" in drift["fields"]
    assert "results" not in drift["fields"]  # the same grid, later
    assert any("determinism audit: 1 divergence" in w
               for w in report.warnings)


def test_report_drift_compares_result_arrays_not_live_objects():
    import numpy as np

    from repro.harness.runner import RunReport, _report_drift

    def report(grid, **overrides):
        fields = dict(
            strategy="fenix_kr_veloc", app="heatdis", n_ranks=1,
            wall_time=9.5, attempts=1, failures=1,
            buckets={"compute": 4.0},
            results={0: {"grid": grid, "kr": object()}})
        fields.update(overrides)
        return RunReport(**fields)

    grid = np.arange(6.0).reshape(2, 3)
    assert _report_drift(report(grid), report(grid.copy())) == []
    other = grid.copy()
    other[1, 2] = np.nextafter(other[1, 2], np.inf)
    assert _report_drift(report(grid), report(other)) == ["results"]
    assert _report_drift(report(grid), report(grid, results={})) \
        == ["results"]
    assert _report_drift(
        report(grid), report(grid, attempts=2, data_path={"novel_bytes": 1.0})
    ) == ["attempts", "data_path"]


# -- executor + cache ----------------------------------------------------


@pytest.fixture(scope="module")
def audited_result():
    return execute_cell(make_spec(determinism_audit=True))


def test_execute_cell_runs_the_audit(audited_result):
    assert audited_result.report.divergences == []


def test_audit_flag_is_part_of_the_cache_identity():
    assert cache_key(make_spec(determinism_audit=True)) \
        != cache_key(make_spec(determinism_audit=False))
    # while the cosmetic label is not
    assert cache_key(make_spec(label="a")) == cache_key(make_spec(label="b"))


def test_cache_round_trips_divergences(tmp_path, audited_result):
    spec = make_spec(determinism_audit=True)
    fake = [{"category": "missing", "layer": "process",
             "key": {"wrank": 2, "kind": "rank_killed",
                     "epoch": None, "occurrence": 0},
             "time": 1.5, "summary": "synthetic", "briefs": [],
             "fields": []}]
    result = dataclasses.replace(
        audited_result,
        report=dataclasses.replace(audited_result.report,
                                   results={}, divergences=fake),
    )
    cache = RunCache(tmp_path)
    cache.put(spec, result)
    hit = cache.get(spec)
    assert hit is not None and hit.cached
    assert hit.report.divergences == fake


# -- ledger / scorecard / HTML -------------------------------------------


def run_record(divergences, seed=7):
    return RunRecord(
        label=f"cell-s{seed}", strategy="fenix_kr_veloc", app="heatdis",
        n_ranks=8, seed=seed, wall_time=12.0, attempts=2, failures=1,
        buckets={"compute": 10.0}, divergences=divergences,
    )


@pytest.fixture()
def audited_ledger():
    ledger = CampaignLedger(meta={"title": "audit"})
    ledger.add_ideal(8, 10.0)
    ledger.add_run(run_record(0, seed=7))
    ledger.add_run(run_record(3, seed=11))
    return ledger


def test_record_from_cell_result_counts_divergences(audited_result):
    fake = dataclasses.replace(
        audited_result,
        report=dataclasses.replace(
            audited_result.report, results={},
            divergences=[{"category": "missing"}, {"category": "extra"}]),
    )
    record = RunRecord.from_cell_result(fake, seed=7)
    assert record.divergences == 2


def test_ledger_round_trips_divergences(tmp_path, audited_ledger):
    path = tmp_path / "campaign.json"
    audited_ledger.save(path)
    doc = json.loads(path.read_text())
    assert "repro_version" in doc  # every artifact is stamped
    loaded = CampaignLedger.load(path)
    assert [r.divergences for r in loaded.runs] == [0, 3]


def test_scorecard_counts_divergent_cells(audited_ledger):
    scorecard = build_scorecard(audited_ledger)
    entry = scorecard["strategies"]["fenix_kr_veloc"]
    assert entry["divergent_cells"] == 1
    text = format_scorecard(scorecard)
    assert "divrg" in text


def test_flag_anomalies_names_the_divergent_cell(audited_ledger):
    flags = flag_anomalies(audited_ledger)
    assert any("determinism" in f and "cell-s11" in f for f in flags)


def test_html_report_badges_divergent_cells(audited_ledger):
    html = render_html(audited_ledger, build_scorecard(audited_ledger))
    assert "badge-diverged" in html
    assert "divergent cells" in html
