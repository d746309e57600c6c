"""Command-line driver: regenerate the paper's evaluation.

Usage::

    python -m repro experiments [TARGET] [--ranks N] [--full-scale] ...

``TARGET`` is a key of :data:`COMMANDS` or ``all`` (the default);
``--help`` lists the flags.

Prints each figure's table (the same rows the benchmark suite writes to
``results/``).  Sweeps fan out over ``--jobs`` worker processes and are
served from the content-addressed run cache under ``results/cache/``
unless ``--no-cache`` is given; cached and parallel results are
bit-identical to a fresh sequential run.  Every invocation ends with the
run-cache hit/miss/skip tally, and ``--progress-jsonl`` streams per-cell
progress events (state, ETA, cache hits, worker utilization) for
dashboards to tail.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from repro import cli
from repro.cli import add_sweep_args, sweep_from_args
from repro.experiments.ablation_checkpoint import (
    STRATEGY,
    format_ablation,
    run_checkpoint_ablation,
    verify_restore_equivalence,
)
from repro.experiments.campaign import campaign_table, run_campaign_grid
from repro.experiments.complexity import analyze_complexity, format_complexity
from repro.experiments.fig5_heatdis import (
    format_fig5,
    run_fig5_data_scaling,
    run_fig5_weak_scaling,
)
from repro.experiments.fig6_minimd import format_fig6, run_fig6_weak_scaling
from repro.experiments.overhead import (
    format_overhead_table,
    run_overhead_attribution,
)
from repro.experiments.fig7_views import format_fig7, run_fig7_census
from repro.experiments.partial_rollback import run_partial_rollback_comparison
from repro.parallel import DEFAULT_TRACE_MAX_RECORDS


def _fig5(args) -> None:
    ranks = args.ranks or (64 if args.full_scale else 8)
    print(format_fig5(
        run_fig5_data_scaling(n_ranks=ranks, jobs=args.jobs,
                              cache=args.cache, progress=args.progress),
        title=f"Figure 5 (left): data scaling at {ranks} ranks",
    ))
    nodes = [4, 16, 64] if args.full_scale else [2, 4, 8]
    print()
    print(format_fig5(
        run_fig5_weak_scaling(nodes=nodes, jobs=args.jobs,
                              cache=args.cache, progress=args.progress),
        title="Figure 5 (right): weak scaling at 1GB/node",
    ))


def _fig6(args) -> None:
    print(format_fig6(run_fig6_weak_scaling(
        ranks=[8, 27, 64] if args.full_scale else [4, 8],
        jobs=args.jobs, cache=args.cache, progress=args.progress,
    )))


def _fig7(args) -> None:
    print(format_fig7(run_fig7_census(jobs=args.jobs,
                                      progress=args.progress)))


def _partial(args) -> None:
    result = run_partial_rollback_comparison(n_ranks=args.ranks or 8)
    print("Partial vs full rollback (Section VI-D2):")
    print(f"  full recovery cost:    {result.full_recovery_cost:.2f} s")
    print(f"  partial recovery cost: {result.partial_recovery_cost:.2f} s")
    print(f"  speedup: {result.speedup:.2f}x (paper: 'nearly 2x')")


def _complexity(_args) -> None:
    print(format_complexity(analyze_complexity()))


def _overhead(args) -> None:
    rows = run_overhead_attribution(n_ranks=args.ranks or 4)
    print(format_overhead_table(rows))


def _campaign(args) -> None:
    ledger = run_campaign_grid(
        scales=(args.ranks or 8,),
        seeds=(7,),
        jobs=args.jobs,
        cache=args.cache,
        trace_max_records=args.max_records,
        progress=args.progress,
        rules=args.rules,
    )
    print(campaign_table(ledger))
    if args.rules:
        fired = [r for r in ledger.runs if r.strategy != "none" and r.alerts]
        total = sum(r.alerts for r in fired)
        print(f"\nSLO rules ({args.rules}): {total} alert(s) fired")
        for r in fired:
            print(f"  [{r.label}] {r.alerts} alert(s)")


def _ablation(args) -> None:
    ranks = args.ranks or 4
    print(format_ablation(run_checkpoint_ablation(
        n_ranks=ranks, jobs=args.jobs, cache=args.cache,
        progress=args.progress,
    ), title=f"Checkpoint data-path ablation ({ranks} ranks, {STRATEGY})"))
    outcome = verify_restore_equivalence(n_ranks=ranks)
    print(f"restore equivalence: OK "
          f"({outcome['compared']} rank grids bit-identical across "
          f"incremental/full and failed/clean runs)")


COMMANDS = {
    "fig5": _fig5,
    "ablation": _ablation,
    "fig6": _fig6,
    "fig7": _fig7,
    "partial": _partial,
    "complexity": _complexity,
    "overhead": _overhead,
    "campaign": _campaign,
}


def add_commands(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(run=_run)
    parser.add_argument("what", choices=[*COMMANDS, "all"], nargs="?",
                        default="all")
    parser.add_argument("--ranks", type=int, default=None,
                        help="override the rank count")
    parser.add_argument("--full-scale", action="store_true",
                        help="use the paper's node counts (slower)")
    add_sweep_args(parser)
    parser.add_argument("--max-records", type=int,
                        default=DEFAULT_TRACE_MAX_RECORDS, metavar="N",
                        help="Trace ring-buffer size for telemetered sweep "
                             "runs (default %(default)s; keeps multi-hour "
                             "campaigns at bounded memory)")
    parser.add_argument("--rules", default=None, metavar="PATH",
                        help="SLO rules file (repro.live) evaluated live "
                             "inside each campaign cell; alert counts are "
                             "printed per run and land in the reports")


def _run(args: argparse.Namespace) -> int:
    args.cache, args.progress = sweep_from_args(args, args.progress_jsonl)
    targets = list(COMMANDS) if args.what == "all" else [args.what]
    for i, name in enumerate(targets):
        if i:
            print("\n" + "=" * 72 + "\n")
        COMMANDS[name](args)
    if args.progress is not None:
        args.progress.finish()
    if args.cache is not None:
        print()
        print(args.cache.summary())
    return 0


main = partial(cli.main, tool="experiments")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
