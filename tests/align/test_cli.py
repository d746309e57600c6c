"""python -m repro.align: exit codes, JSON shapes, rendering."""

import json

import pytest

from repro.align import ALIGN_SCHEMA
from repro.align.__main__ import main
from repro.monitor.trace_io import write_trace
from repro.report.compare import EXIT_BAD_INPUT, EXIT_OK, EXIT_REGRESSION


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, base_trace, replay_trace,
                perturbed_trace):
    """The session traces persisted as CLI inputs."""
    root = tmp_path_factory.mktemp("align-cli")
    paths = {}
    for name, trace in [("base", base_trace), ("replay", replay_trace),
                        ("perturbed", perturbed_trace)]:
        path = root / f"{name}.trace.jsonl"
        write_trace(str(path), trace)
        paths[name] = str(path)
    return paths


# -- diff ----------------------------------------------------------------


def test_diff_identical_exits_clean(trace_files, capsys):
    rc = main(["diff", trace_files["base"], trace_files["replay"]])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "zero divergences" in out


def test_diff_perturbed_roots_cause_to_process_layer(trace_files, capsys):
    rc = main(["diff", trace_files["base"], trace_files["perturbed"],
               "--json"])
    assert rc == EXIT_REGRESSION
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == ALIGN_SCHEMA
    assert doc["divergent"] is True
    (pair,) = doc["pairs"]
    assert pair["a"] == trace_files["base"]
    assert pair["b"] == trace_files["perturbed"]
    first = pair["first"]
    assert first["layer"] == "process"
    assert first["key"]["kind"] in ("rank_killed", "rank_crashed")
    assert first["context_a"] and first["context_b"]
    assert "wall_time" in pair["downstream"]


def test_diff_text_report_names_the_layer(trace_files, capsys):
    rc = main(["diff", trace_files["base"], trace_files["perturbed"]])
    assert rc == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "first divergence [process]" in out
    assert "context (run A):" in out


def test_diff_writes_report_file(trace_files, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["diff", trace_files["base"], trace_files["perturbed"],
               "--out", str(out_path)])
    assert rc == EXIT_REGRESSION
    doc = json.loads(out_path.read_text())
    assert doc["mode"] == "diff"
    assert doc["pairs"][0]["first"]["layer"] == "process"


def test_diff_structural_only_flag_round_trips(trace_files, capsys):
    rc = main(["diff", trace_files["base"], trace_files["replay"],
               "--structural-only", "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["structural_only"] is True


def test_diff_missing_file_is_bad_input(trace_files, capsys):
    rc = main(["diff", trace_files["base"], "/nonexistent.jsonl"])
    assert rc == EXIT_BAD_INPUT
    assert "cannot load" in capsys.readouterr().err


# -- check ---------------------------------------------------------------


def test_check_replay_seeded_kill_cell_is_deterministic(capsys):
    rc = main(["check", "--kill-rank", "2", "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == ALIGN_SCHEMA
    assert doc["mode"] == "check-replay"
    assert doc["divergent"] is False
    assert doc["divergences"] == []
    assert doc["spec"]["kill_rank"] == 2
    assert doc["spec"]["failure_seed"] is None


def test_check_fails_on_a_run_report_drift(monkeypatch, capsys):
    """The audit is the harness's: a replay whose report differs (here,
    its result arrays) fails it even when the traces align."""
    import repro.harness.runner as runner

    monkeypatch.setattr(runner, "_report_drift",
                        lambda report, replayed: ["results"])
    rc = main(["check", "--kill-rank", "2", "--json"])
    assert rc == EXIT_REGRESSION
    doc = json.loads(capsys.readouterr().out)
    assert doc["divergent"] is True
    assert [d["key"]["kind"] for d in doc["divergences"]] == ["run_report"]
    rc = main(["check", "--kill-rank", "2"])
    assert rc == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert ": 1 divergence(s)" in out
    assert "first divergence [app]" in out


@pytest.mark.parametrize("argv", [["check", "--replay"],
                                  ["record", "--out", "x.trace.jsonl"],
                                  ["bisect", "a.jsonl", "b.jsonl"]],
                         ids=["check-replay", "record", "bisect"])
def test_deleted_commands_and_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == EXIT_BAD_INPUT


def test_check_kill_rank_and_failure_seed_are_a_usage_error(capsys):
    """Two failure plans: the exponential one would silently replace the
    kill while the report's spec still named it."""
    rc = main(["check", "--kill-rank", "2", "--failure-seed", "8",
               "--mtbf", "6"])
    assert rc == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "--kill-rank" in line and "--failure-seed" in line


def test_check_unknown_strategy_is_bad_input(capsys):
    rc = main(["check", "--strategy", "nope"])
    assert rc == EXIT_BAD_INPUT
    assert "unknown strategy" in capsys.readouterr().err


# -- diff over a series --------------------------------------------------


def test_diff_series_reports_every_pair_in_order(trace_files, capsys):
    rc = main(["diff", trace_files["base"], trace_files["replay"],
               trace_files["perturbed"], "--json"])
    assert rc == EXIT_REGRESSION
    doc = json.loads(capsys.readouterr().out)
    assert [pair["b"] for pair in doc["pairs"]] \
        == [trace_files["replay"], trace_files["perturbed"]]
    assert doc["pairs"][0]["divergent"] is False
    assert doc["pairs"][1]["divergent"] is True
    assert doc["pairs"][1]["first"]["layer"] == "process"
