"""The job scaffold of the run CLIs: nine flags in, a ready-to-run job out.

``python -m repro.telemetry run``, ``repro.monitor check``,
``repro.profile report|critical-path|flamegraph`` and ``repro.align
check|record`` all build the same small job -- an application from
:data:`repro.apps.APPS` on the paper platform, optionally with the paper's
one kill between two checkpoints -- and differ only in what they observe.
This module registers the shared flags and turns them into the job once,
with one validation.

It lives outside :mod:`repro.harness` and imports the simulator inside
its functions: every CLI registers its flags on every invocation, and
their offline subcommands (``validate``, ``diff``, ``state``,
``explain``, ...) read saved files and must not load the harness to do it.
"""

from __future__ import annotations

import argparse
import dataclasses
from functools import partial
from typing import Any, Callable, Optional

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
