"""One front door: ``python -m repro <tool> <command>`` and ``python -m
repro.<tool> <command>`` are the same call (``repro.cli.main``).

One table -- every subcommand of the six observer tools and every target
of ``experiments`` -- drives three contracts: both spellings agree on
stdout, stderr and exit code; input a command cannot read is exit 2 with
one line on stderr; and the table is complete (a new subcommand without
a row fails here).  Around it: a reader that went away is a quiet exit
0 for every tool, the front door stays lazy, and the scaffolding exists
once (an AST walk, like ``tests/test_vocabulary.py``'s).
"""

import argparse
import ast
import contextlib
import importlib
import io
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple, Sequence

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the run subcommands' job: the 4-rank scaffold default with one kill
KILL = ["--kill-rank", "2", "--iters", "20"]
#: a campaign of one cell per strategy (report run)
CAMPAIGN = ["--seeds", "2", "--ranks", "4", "--iters", "24",
            "--max-failures", "1", "--no-exemplars", "--bench", "",
            "--no-cache"]
HOWS = ("missing", "not-json", "wrong-shape")


class Row(NamedTuple):
    tool: str
    #: a good invocation; ``{name}`` is a file of the ``files`` fixture
    argv: Sequence[str]
    #: file-taking commands: the same, with ``{bad}`` where the input goes
    bad: Sequence[str] = ()
    #: the kinds of bad input the command refuses (``live tail`` is a
    #: viewer over a file still being written: it skips torn and foreign
    #: lines by design, so only a missing file is an error there)
    hows: Sequence[str] = HOWS

    @property
    def id(self):
        return f"{self.tool}-{self.argv[0]}"


TABLE = [
    Row("telemetry", ["run", *KILL, "--out", "{tmp}/tel2"]),
    Row("telemetry", ["validate", "{chrome}"], ["validate", "{bad}"]),
    Row("telemetry", ["diff", "{metrics}", "{metrics}"],
        ["diff", "{metrics}", "{bad}"]),
    Row("monitor", ["check", "{trace}"], ["check", "{bad}"]),
    Row("monitor", ["state", "{trace}", "--at", "4.0"], ["state", "{bad}"]),
    Row("monitor", ["explain", "{trace}"], ["explain", "{bad}"]),
    Row("monitor", ["smoke", "--iters", "20", "--out", "{tmp}/smoke"]),
    Row("profile", ["report", *KILL, "--json", "{tmp}/ledger2.json"]),
    Row("profile", ["critical-path", *KILL]),
    Row("profile", ["flamegraph", *KILL, "--out", "{tmp}/p.folded"]),
    Row("profile", ["diff", "{ledger}", "{ledger}"],
        ["diff", "{ledger}", "{bad}"]),
    Row("live", ["tail", "{progress}", "--once"],
        ["tail", "{bad}", "--once"], hows=("missing",)),
    Row("live", ["tail", "{trace}", "--once", "--rules", "{rules}"],
        ["tail", "{trace}", "--once", "--rules", "{bad}"]),
    Row("live", ["check", "{trace}", "--rules", "{rules}"],
        ["check", "{bad}", "--rules", "{rules}"]),
    Row("live", ["export", "{trace}"], ["export", "{bad}"]),
    Row("align", ["diff", "{trace}", "{trace}"], ["diff", "{trace}", "{bad}"]),
    Row("align", ["check", "--replay", *KILL]),
    Row("align", ["record", *KILL, "--out", "{tmp}/rec.trace.jsonl"]),
    Row("align", ["bisect", "{trace}", "{trace}", "{trace}"],
        ["bisect", "{trace}", "{trace}", "{bad}"]),
    Row("report", ["run", *CAMPAIGN, "--out", "{tmp}/report2"]),
    Row("report", ["render", "{campaign}", "--out", "{tmp}/r.html"],
        ["render", "{bad}", "--out", "{tmp}/r.html"]),
    Row("report", ["scorecard", "{campaign}"], ["scorecard", "{bad}"]),
    Row("report", ["diff", "{scorecard}", "{campaign}"],
        ["diff", "{scorecard}", "{bad}"]),
    # served from the cache the fixture primed: both spellings are warm
    *(Row("experiments", [what, "--ranks", "3", "--cache-dir", "{cache}"])
      for what in ("fig5", "ablation", "fig6", "fig7", "partial",
                   "complexity", "overhead", "campaign", "all")),
]


def quietly(argv):
    """Run a command for the files it writes."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """What the offline commands read, written by the run commands."""
    tmp = tmp_path_factory.mktemp("front-door")
    names = dict(
        tmp=tmp, chrome=tmp / "tel/trace.json",
        metrics=tmp / "tel/metrics.json", trace=tmp / "run.trace.jsonl",
        ledger=tmp / "ledger.json", campaign=tmp / "report/campaign.json",
        scorecard=tmp / "report/scorecard.json",
        progress=tmp / "report/progress.jsonl", cache=tmp / "cache",
        rules=ROOT / "examples/slo_rules.json")
    names = {k: str(v) for k, v in names.items()}
    quietly(["telemetry", "run", *KILL, "--out", f"{tmp}/tel"])
    quietly(["monitor", "check", *KILL, "--save-trace", names["trace"]])
    quietly(["profile", "report", *KILL, "--json", names["ledger"]])
    quietly(["report", "run", *CAMPAIGN, "--out", f"{tmp}/report"])
    quietly(["experiments", "all", "--ranks", "3",
             "--cache-dir", names["cache"]])
    return names


def fill(argv, files, **extra):
    return [arg.format(**files, **extra) for arg in argv]


# -- both spellings are one call ----------------------------------------------


@pytest.mark.parametrize("row", TABLE, ids=lambda row: row.id)
def test_both_spellings_agree(row, files, capsys):
    argv = fill(row.argv, files)
    dotted = importlib.import_module(f"repro.{row.tool}.__main__").main
    outcomes = []
    for call in (lambda: cli.main([row.tool, *argv]), lambda: dotted(argv)):
        code = call()
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 0 and (out or err)


@pytest.mark.parametrize("tool", sorted(cli.TOOLS))
def test_usage_errors_differ_only_in_prog(tool, capsys):
    texts = []
    for call, argv in (
            (cli.main, [tool, "--no-such-flag"]),
            (importlib.import_module(f"repro.{tool}.__main__").main,
             ["--no-such-flag"])):
        with pytest.raises(SystemExit) as exit_:
            call(argv)
        assert exit_.value.code == 2
        texts.append(capsys.readouterr().err.replace(
            f"python -m repro.{tool}", f"python -m repro {tool}"))
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: python -m repro {tool} ")


def test_the_table_has_a_row_for_every_subcommand():
    declared = set()
    for tool in cli.TOOLS:
        parser = argparse.ArgumentParser()
        importlib.import_module(f"repro.{tool}.__main__").add_commands(parser)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                declared |= {(tool, name) for name in action.choices}
            elif action.dest == "what":  # experiments' targets
                declared |= {(tool, name) for name in action.choices}
    assert declared == {(row.tool, row.argv[0]) for row in TABLE}
    assert len(declared) == 22 + 9


def test_report_without_a_command_is_run_with_its_defaults(monkeypatch):
    report = importlib.import_module("repro.report.__main__")
    seen = []
    monkeypatch.setattr(report, "_run", lambda args: seen.append(args) or 0)
    assert cli.main(["report"]) == report.main([]) == 0
    assert [(args.iters, args.out, args.jobs) for args in seen] \
        == [(120, "report-out", 1)] * 2


def test_the_front_door_lists_the_seven_tools(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.TOOLS) == 7
    assert all(f"\n  {tool} " in out for tool in cli.TOOLS)


# -- one load-error path ------------------------------------------------------


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bad-input")
    (tmp / "not-json").write_text("this is not json\n")
    (tmp / "wrong-shape").write_text("[1, 2, 3]\n")
    return {how: str(tmp / how) for how in HOWS}


@pytest.mark.parametrize("how", HOWS)
@pytest.mark.parametrize("row", [row for row in TABLE if row.bad],
                         ids=lambda row: row.id)
def test_input_a_command_cannot_read_is_exit_2_and_one_line(
        row, how, files, bad_inputs, capsys):
    if how not in row.hows:
        pytest.skip(f"{row.id} tolerates {how} input by design")
    assert cli.main([row.tool, *fill(row.bad, files, bad=bad_inputs[how])]) \
        == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert bad_inputs[how] in captured.err


# -- one epilogue -------------------------------------------------------------

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))

PRINTS = {
    "experiments": ["complexity"],
    "telemetry": ["validate", "{chrome}"],
    "monitor": ["state", "{trace}"],
    "profile": ["diff", "{ledger}", "{ledger}"],
    "live": ["check", "{trace}", "--rules", "{rules}"],
    "align": ["diff", "{trace}", "{trace}"],
    "report": ["scorecard", "{campaign}"],
}


@pytest.mark.parametrize("tool", sorted(PRINTS))
def test_a_reader_that_went_away_is_a_quiet_exit_0(tool, files):
    """``python -m repro.<tool> ... | head``, after ``head`` has left."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", f"repro.{tool}",
             *fill(PRINTS[tool], files)],
            stdout=write_end, stderr=subprocess.PIPE, env=ENV, cwd=ROOT,
            timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


# -- it stays lazy ------------------------------------------------------------


def loaded_by(statement):
    """The ``repro`` modules in ``sys.modules`` after ``statement``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{statement}\n"
         "print(*sorted(m for m in sys.modules if m.startswith('repro')),"
         " file=sys.stderr)"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=ENV,
        text=True, timeout=120, check=True)
    return set(proc.stderr.split())


def test_importing_the_cli_imports_nothing_else_of_repro():
    assert loaded_by("import repro.cli") == {"repro", "repro.cli"}


@pytest.mark.parametrize("argv", [
    ["monitor", "state", "{trace}"],
    ["live", "check", "{trace}", "--rules", "{rules}"],
    ["report", "diff", "{scorecard}", "{scorecard}"],
    ["telemetry", "validate", "{chrome}"],
], ids=lambda argv: "-".join(argv[:2]))
def test_an_offline_command_never_loads_the_simulator(argv, files):
    loaded = loaded_by(
        f"from repro.cli import main\nassert main({fill(argv, files)}) == 0")
    assert f"repro.{argv[0]}.__main__" in loaded
    heavy = ("repro.harness", "repro.experiments", "repro.apps", "repro.mpi")
    assert not {m for m in loaded if m.startswith(heavy)}


# -- and it is written once ---------------------------------------------------


def test_the_scaffolding_exists_once():
    naming_broken_pipe = [
        str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
        if "BrokenPipeError" in path.read_text(encoding="utf-8")]
    assert naming_broken_pipe == ["repro/cli.py"]
    mains = sorted((SRC / "repro").glob("*/__main__.py"))
    assert [path.parent.name for path in mains] == sorted(cli.TOOLS)
    for path in mains:
        source = path.read_text(encoding="utf-8")
        where = str(path.relative_to(SRC))
        # a command is a parser row plus a function: no parser and no
        # dispatch chain of the tool's own
        assert "ArgumentParser(" not in source, where
        assert "args.command" not in source, where
        guard = ast.parse(source).body[-1]
        assert isinstance(guard, ast.If), where
        assert ast.unparse(guard.test) == "__name__ == '__main__'", where
        assert [ast.unparse(stmt) for stmt in guard.body] \
            == ["sys.exit(main())"], where
