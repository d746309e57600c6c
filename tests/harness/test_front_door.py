"""The path from "what to run" to "what happened", written once.

``run_job`` over the ``repro.apps.APPS`` registry is the one way in;
``RunReport.to_dict`` / ``from_dict`` the one way out.  These tests are
the claims of that design, executable: an application is one registry
row, every app x strategy pair has one defined outcome, every report
survives JSON, and the call shapes the frozen benchmark uses still bind.
"""

import dataclasses
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPS, AppSpec, HeatdisConfig, MiniMDConfig
from repro.experiments.common import paper_env
from repro.harness import (
    STRATEGIES,
    RunReport,
    run_heatdis_job,
    run_job,
    run_minimd_job,
)
from repro.harness.runner import JobRunner
from repro.mpi import SUM
from repro.parallel import CellSpec, RunCache, run_cells
from repro.report.ledger import RunRecord
from repro.sim import IterationFailure, NoFailures
from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.util.errors import ConfigError

from tests.parallel.test_cache import TIGHT_RULES


def env(n_ranks=2):
    return paper_env(n_ranks + 1, n_spares=1, pfs_servers=1)


# -- (i) an application is one registry row ------------------------------


@dataclass(frozen=True)
class ToyConfig:
    n_rounds: int = 3


def _toy_main(cfg, strategy, ckpt_interval, runner, imr, plan, results,
              tracker):
    def main(role, handle):
        total = 0
        for _ in range(cfg.n_rounds):
            total = yield from handle.allreduce(handle.rank + 1, SUM)
        results[handle.rank] = {"total": total}

    return main


def test_a_toy_app_registered_from_the_test_runs_end_to_end(
        monkeypatch, tmp_path):
    """Front door, sweep cell, cache hit and campaign record, with no
    edit under ``src/``."""
    monkeypatch.setitem(
        APPS, "toy", AppSpec(ToyConfig, "n_rounds", False, _toy_main))
    report = run_job("toy", env(), "none", 2, ToyConfig(), 1)
    assert report.app == "toy"
    assert report.results == {0: {"total": 3}, 1: {"total": 3}}

    spec = CellSpec(app="toy", strategy="none", n_ranks=2,
                    config=ToyConfig(n_rounds=5), ckpt_interval=1, env=env())
    cache = RunCache(tmp_path)
    fresh = run_cells([spec], jobs=1, cache=cache)[0]
    hit = run_cells([spec], jobs=1, cache=cache)[0]
    assert (fresh.cached, hit.cached, cache.hits) == (False, True, 1)
    assert hit.report.to_dict() == fresh.report.to_dict()
    assert fresh.report.wall_time > report.wall_time  # 5 rounds, not 3
    record = RunRecord.from_cell_result(hit, seed=0)
    assert (record.app, record.n_iters, record.cached) == ("toy", 5, True)


def test_the_error_that_stopped_the_job_is_the_error_raised(monkeypatch):
    """A rank's own typed error reaches the caller as itself, not as the
    engine's ``SimulationError("process 'job_driver' died with unhandled
    ConfigError: ...")``: "stops with a typed error" is ``pytest.raises``
    of the type, not a substring of a message."""
    def build(*_args, **_kwargs):
        def main(role, handle):
            yield from handle.allreduce(0)
            if handle.rank == 1:
                raise ConfigError("rank 1 cannot go on")
        return main

    monkeypatch.setitem(APPS, "toy", AppSpec(ToyConfig, "n_rounds", False,
                                             build))
    for strategy in ("none", "fenix_kr_veloc"):
        with pytest.raises(ConfigError, match="rank 1 cannot go on"):
            run_job("toy", env(), strategy, 2, ToyConfig(), 1)


# -- (ii) every app x strategy has one defined outcome --------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("app", sorted(APPS))
def test_every_app_runs_or_refuses_every_strategy(app, strategy):
    row, spec = APPS[app], STRATEGIES[strategy]
    # partial rollback is the convergence variant of Heatdis
    extra = ({"convergence_threshold": 1e-12}
             if spec.scope == "recovered_only" and app == "heatdis" else {})
    cfg = row.config(**{row.steps_field: 4}, **extra)
    if row.kr_only and spec.checkpointing and not spec.kr:
        with pytest.raises(ConfigError, match="only integrated through "
                                              "Kokkos Resilience"):
            run_job(app, env(), strategy, 2, cfg, 2)
        return
    report = run_job(app, env(), strategy, 2, cfg, 2)
    assert (report.app, report.strategy) == (app, strategy)
    assert sorted(report.results) == [0, 1]


def test_a_typo_is_a_typed_error_that_names_what_exists():
    cfg = HeatdisConfig(n_iters=4)
    with pytest.raises(ConfigError, match="unknown strategy 'warp'; "
                                          "known: .*fenix_kr_veloc"):
        run_job("heatdis", env(), "warp", 2, cfg, 2)
    with pytest.raises(ConfigError, match="unknown app 'nbody'; "
                                          "known: .*minimd"):
        run_job("nbody", env(), "none", 2, cfg, 2)
    # a cell names its strategy by value: the typo surfaces when it runs
    cell = CellSpec(app="heatdis", strategy="warp", n_ranks=2, config=cfg,
                    ckpt_interval=2, env=env())
    with pytest.raises(ConfigError, match="unknown strategy 'warp'"):
        run_cells([cell])


#: one run command of each tool that builds a job (``repro.cli`` rows)
RUN_COMMANDS = [
    ["telemetry", "run"],
    ["monitor", "check"],
    ["profile", "report"],
    ["align", "check", "--replay"],
]


@pytest.mark.parametrize("flags, message", [
    (["--kill-rank", "99", "--ranks", "4"],
     "--kill-rank 99 out of range for 4 ranks"),
    (["--strategy", "warp"], "unknown strategy 'warp'; known: "),
], ids=["kill-rank", "strategy"])
@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda c: c[0])
def test_every_run_cli_rejects_a_job_that_cannot_be(command, flags, message,
                                                    capsys):
    """One scaffold, so one answer: exit 2 and the same message, where
    the two gate CLIs used to run a failure-free job and report success."""
    from repro.cli import main

    assert main(command + flags) == 2
    assert message in capsys.readouterr().err


# -- (iii) one way out: every report survives JSON ------------------------


def _heatdis(strategy="fenix_kr_veloc", kill=False, **observe):
    plan = IterationFailure.between_checkpoints(1, 4, 1) if kill else None
    return run_heatdis_job(
        env(), strategy, 2,
        HeatdisConfig(n_iters=12, modeled_bytes_per_rank=16e6), 4,
        plan=plan, **observe)


def _violated():
    """A run whose monitor suite found something: the recorded stream of
    a clean kill with its revoke removed (tests/monitor's corruption)."""
    from repro.monitor import MonitorSuite

    suite = MonitorSuite()
    _heatdis(kill=True, monitor=suite, strict_monitor=False)
    broken = MonitorSuite()
    broken.replay(r for r in suite._trace if r.kind != "revoke")
    broken.finish()
    assert broken.violations
    return dataclasses.replace(_heatdis(), violations=broken.violations)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    rules = tmp_path_factory.mktemp("rules") / "tight.json"
    rules.write_text(json.dumps(TIGHT_RULES))
    made = {
        "clean": _heatdis(),
        "killed": _heatdis(kill=True),
        "violated": _violated(),
        "alerted": _heatdis(kill=True, rules=str(rules)),
        "audited": _heatdis(kill=True, determinism_audit=True),
        "profiled": _heatdis(kill=True, telemetry=Telemetry(),
                             profile=True),
    }
    assert made["alerted"].alerts and made["profiled"].profile
    return made


@pytest.mark.parametrize("kind", ["clean", "killed", "violated", "alerted",
                                  "audited", "profiled"])
def test_run_report_round_trips_through_json(reports, kind):
    report = reports[kind]
    doc = json.loads(json.dumps(report.to_dict()))
    back = RunReport.from_dict(doc)
    assert back.to_dict() == report.to_dict()
    assert back.results == {}
    # every field but the live payload is in the document, by construction
    assert set(doc) == {f.name for f in dataclasses.fields(RunReport)} \
        - {"results"}
    assert [v.render() for v in back.violations] == \
        [v.render() for v in report.violations]
    assert [a.render() for a in back.alerts] == \
        [a.render() for a in report.alerts]


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=8)
seconds = st.floats(0, 1e9, allow_nan=False)
float_maps = st.dictionaries(st.text(max_size=8), seconds, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.builds(TraceRecord, time=seconds, source=st.text(max_size=8),
                 kind=st.text(max_size=8),
                 fields=st.dictionaries(st.text(max_size=6), json_values,
                                        max_size=4),
                 seq=st.integers(-1, 2**31)))
def test_trace_record_round_trips_through_json(record):
    doc = json.loads(json.dumps(record.to_dict()))
    assert TraceRecord.from_dict(doc) == record
    assert TraceRecord.from_dict(doc).to_dict() == record.to_dict()


counts = st.integers(0, 10**6)


@settings(max_examples=60, deadline=None)
@given(st.builds(
    RunRecord, label=st.text(max_size=12), strategy=st.sampled_from(
        sorted(STRATEGIES)), app=st.sampled_from(sorted(APPS)),
    n_ranks=counts, seed=counts, wall_time=seconds, attempts=counts,
    failures=counts, buckets=float_maps, violations=counts, alerts=counts,
    divergences=counts, cached=st.booleans(), host_seconds=seconds,
    n_iters=counts, data_path=float_maps))
def test_run_record_round_trips_through_json(record):
    doc = json.loads(json.dumps(record.to_dict()))
    assert RunRecord.from_dict(doc) == record
    # version skew, both ways: an unknown key is ignored, a missing
    # optional one takes its default
    doc["added_by_a_later_build"] = 1
    del doc["data_path"]
    assert RunRecord.from_dict(doc) == dataclasses.replace(
        record, data_path={})


# -- (iv) the frozen benchmark's call shapes ------------------------------


def test_the_call_shapes_benchmarks_e2e_uses_still_bind(tmp_path):
    """``benchmarks/e2e/adapter.py`` and ``probes.py`` may not change
    with the harness; these are exactly the shapes they call."""
    from repro.monitor.trace_io import JsonlTraceSink

    rules = tmp_path / "tight.json"
    rules.write_text(json.dumps(TIGHT_RULES))
    cfg = HeatdisConfig(n_iters=12, modeled_bytes_per_rank=16e6)
    with JsonlTraceSink(str(tmp_path / "run.jsonl")) as sink:
        report = run_heatdis_job(
            env(), "fenix_kr_veloc", 2, cfg, 4,
            plan=IterationFailure.between_checkpoints(1, 4, 1),
            telemetry=Telemetry(), strict_monitor=True, profile=True,
            rules=str(rules), trace_sink=sink, determinism_audit=True)
    assert report.app == "heatdis" and report.divergences == []
    assert report.alerts and report.profile and sink.records_written

    md = run_minimd_job(env(), "kr_veloc", 2, MiniMDConfig(n_steps=4), 2,
                        plan=NoFailures())
    assert md.app == "minimd"

    built = JobRunner(env(), STRATEGIES["fenix_kr_veloc"], 2, NoFailures(),
                      None, "heatdis")
    assert built.trace is None  # nobody watching: nothing recorded
