"""The command line, written once: ``python -m repro <tool> <command> ...``.

A command is a parser row plus a function: a tool's ``__main__.py``
declares its rows in ``add_commands(parser)`` and binds each to its
function with ``set_defaults(run=fn)``.  What surrounds a command is here:

- :func:`main` parses, dispatches and keeps the exit contract
  (:data:`EXIT_OK` / :data:`EXIT_REGRESSION` / :data:`EXIT_BAD_INPUT`,
  the last with one line on stderr, a usage error's too);
  ``python -m repro.<tool> ...`` is the same call with the tool already
  chosen (``main = partial(cli.main, tool=...)``);
- :func:`open_input` / :func:`load_json`: the readers under the
  file-taking commands, whose failures are bad input;
- :func:`add_job_args` / :func:`build_job` / :func:`job_from_args`: the
  job scaffold of the run commands (``telemetry run``, ``monitor check``,
  ``profile report|flamegraph``, ``align check``) --
  nine flags in, a ready-to-run job out, one validation;
- :func:`add_sweep_args` / :func:`sweep_from_args`: the worker, cache and
  progress flags of the sweep commands (``experiments``, ``report run``).

It lives outside :mod:`repro.harness` and imports nothing of ``repro``
until a function needs it: :data:`TOOLS` is a static table, so the front
door imports only the tool it was asked for, and the offline commands
(``validate``, ``diff``, ``state``, ``explain``, ...) read saved files
without loading the simulator.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys
from functools import partial
from typing import IO, Any, Callable, Dict, List, NoReturn, Optional, Tuple

#: what a command returns: clean / a finding (violations, alerts,
#: divergences, a metric past its budget) / usage and load errors
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_BAD_INPUT = 2

#: tool -> its one-line description (``repro.<tool>.__main__`` holds the
#: rows; this table is all the front door knows before it imports one)
TOOLS: Dict[str, str] = {
    "experiments": "Regenerate the paper's evaluation figures.",
    "telemetry": "Run and export instrumented experiments.",
    "monitor": "Check, reconstruct, and explain resilience-protocol "
               "traces.",
    "profile": "Per-layer cost attribution over the telemetry stream.",
    "live": "Live dashboards and SLO checks over trace and progress "
            "streams.",
    "align": "Cross-run trace alignment, first-divergence root-causing, "
             "and determinism auditing.",
    "report": "Cross-run campaign scorecards, HTML reports, and the "
              "budget gate over saved run documents.",
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage error, like every other bad input, is one
    line on stderr and exit 2 (subparsers are made of the same class)."""

    def error(self, message: str) -> NoReturn:
        usage = " ".join(self.format_usage().split())
        self.exit(EXIT_BAD_INPUT, f"{usage} -- error: {message}\n")


def main(argv: Optional[List[str]] = None, tool: Optional[str] = None) -> int:
    """Run one command and return its exit code; ``tool=None`` reads the
    tool's name off the front of ``argv`` (``python -m repro``)."""
    from repro.util.errors import ConfigError

    argv = sys.argv[1:] if argv is None else list(argv)
    prog = "python -m repro." if tool else "python -m repro "
    try:
        if tool is None:
            top = _Parser(
                prog="python -m repro",
                description="One front door for the tools; `python -m "
                            "repro <tool> --help` lists a tool's commands.",
                epilog="tools:\n" + "\n".join(
                    f"  {name:<12} {text}" for name, text in TOOLS.items()),
                formatter_class=argparse.RawDescriptionHelpFormatter)
            top.add_argument("tool", choices=TOOLS, metavar="tool")
            top.add_argument("args", nargs=argparse.REMAINDER,
                             help="the tool's command and its arguments")
            chosen = top.parse_args(argv)
            tool, argv = chosen.tool, chosen.args
        parser = _Parser(prog=prog + tool, description=TOOLS[tool])
        _tool_module(tool).add_commands(parser)
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:
        # output piped into e.g. `head`, which has left: point stdout at
        # devnull so the interpreter's exit flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def _tool_module(tool: str) -> Any:
    """``repro.<tool>.__main__``.  Under ``python -m repro.<tool>`` that
    module is already running as ``__main__``: importing it by name would
    execute it a second time, as another module."""
    name = f"repro.{tool}.__main__"
    running = sys.modules.get("__main__")
    if getattr(getattr(running, "__spec__", None), "name", None) == name:
        return running
    return importlib.import_module(name)


def open_input(path: str) -> IO[str]:
    """Open a file a command was pointed at; one that cannot be opened
    is bad input, whichever command asked."""
    from repro.util.errors import ConfigError

    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot load {path}: {exc.strerror}") from exc


def load_json(path: str) -> Dict[str, Any]:
    """The JSON object in ``path`` (every document these tools write --
    metrics, ledgers, scorecards, trace exports -- is one)."""
    from repro.util.errors import ConfigError

    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not text at all
            raise ConfigError(
                f"cannot load {path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"cannot load {path}: not a JSON object")
    return doc


DEFAULT_SEED = 20220906


def add_job_args(parser: argparse.ArgumentParser,
                 default_strategy: str) -> None:
    """Register the job flags every run CLI shares."""
    parser.add_argument("--app", default="heatdis",
                        help="an application registered in repro.apps.APPS")
    parser.add_argument("--strategy", default=default_strategy,
                        help="a strategy name from repro.harness.strategies")
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--iters", type=int, default=30,
                        help="iterations / MD steps")
    parser.add_argument("--interval", type=int, default=10,
                        help="checkpoint interval (iterations)")
    parser.add_argument("--spares", type=int, default=1)
    parser.add_argument("--kill-rank", type=int, default=None,
                        help="inject one failure on this rank")
    parser.add_argument("--kill-after-checkpoint", type=int, default=1,
                        help="die ~95%% of the way past this checkpoint "
                             "number")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="cluster seed (the deterministic substrate)")


def build_job(
    app: str,
    strategy: str,
    ranks: int,
    iters: int,
    interval: int,
    spares: int = 1,
    kill_rank: Optional[int] = None,
    kill_after_checkpoint: int = 1,
    seed: int = DEFAULT_SEED,
    **cfg_fields: Any,
) -> Callable[..., Any]:
    """One small job on the paper platform, ready to run: the result is
    :func:`~repro.harness.run_job` bound to the application, its
    ``(env, cfg)`` and the kill plan, so ``build_job(...)(telemetry=tel)``
    runs it observed as the caller asks and returns the report (``plan=``
    there replaces the kill plan).

    ``cfg_fields`` (e.g. ``modeled_bytes_per_rank``) are set on the
    application's config where it has such a field and dropped where it
    does not -- MiniMD's size is its atom count, not a byte figure.
    Raises :class:`~repro.util.errors.ConfigError` for an unknown app or
    strategy and for a kill aimed at a rank the job does not have (it
    could never fire, and the run would pass for a failure test).
    """
    from repro.apps import resolve_app
    from repro.experiments.common import paper_env
    from repro.harness.runner import run_job
    from repro.harness.strategies import resolve_strategy
    from repro.sim.failures import IterationFailure, NoFailures
    from repro.util.errors import ConfigError

    row = resolve_app(app)
    spec = resolve_strategy(strategy)
    if kill_rank is not None and not 0 <= kill_rank < ranks:
        raise ConfigError(
            f"--kill-rank {kill_rank} out of range for {ranks} ranks"
        )
    n_spares = spares if spec.fenix else 0
    env = paper_env(ranks + max(n_spares, 1), n_spares=n_spares, seed=seed,
                    pfs_servers=2)
    known = {f.name for f in dataclasses.fields(row.config)}
    cfg = row.config(**{row.steps_field: iters},
                     **{k: v for k, v in cfg_fields.items() if k in known})
    plan = NoFailures() if kill_rank is None else (
        IterationFailure.between_checkpoints(
            kill_rank, interval, kill_after_checkpoint))
    return partial(run_job, app, env, strategy, ranks, cfg, interval,
                   plan=plan)


def job_from_args(args: argparse.Namespace,
                  **cfg_fields: Any) -> Callable[..., Any]:
    """:func:`build_job` of the shared flags (``cfg_fields``: what the
    CLI's own flags add, e.g. ``--bytes``)."""
    return build_job(
        args.app, args.strategy, args.ranks, args.iters, args.interval,
        args.spares, args.kill_rank, args.kill_after_checkpoint, args.seed,
        **cfg_fields)


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Register the flags every sweep command shares."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep cells "
                             "(0 = one per CPU; default 1 = sequential)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; ignore the run cache")
    parser.add_argument("--cache-dir", default="results/cache",
                        help="run-cache directory (default results/cache)")
    parser.add_argument("--progress-jsonl", default=None, metavar="PATH",
                        help="stream per-cell progress events (JSON lines) "
                             "to PATH; a TTY status line is shown on "
                             "stderr automatically when it is a terminal")


def sweep_from_args(args: argparse.Namespace,
                    progress_jsonl: Optional[str]) -> Tuple[Any, Any]:
    """``(cache, progress)`` of the shared flags: one run cache and one
    progress stream (its events also written to ``progress_jsonl``) for
    the whole invocation, so the final tally covers every sweep it ran."""
    from repro.parallel import RunCache, default_progress, resolve_jobs

    cache = None if args.no_cache else RunCache(args.cache_dir)
    progress = default_progress(resolve_jobs(args.jobs),
                                jsonl_path=progress_jsonl)
    return cache, progress
