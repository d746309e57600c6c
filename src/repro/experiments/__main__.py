"""Command-line driver: regenerate the paper's evaluation.

Usage::

    python -m repro experiments [TARGET] [--full-scale] ...

``TARGET`` is a key of :data:`TARGETS` or ``all`` (the default);
``--help`` lists the flags.

The one thing that makes ``results/``: each target prints its tables and
writes each one to ``results/NAME`` under the current directory (at
``--full-scale``, ``results/full_scale/NAME``; only ``fig5`` and ``fig6``
have a paper-scale row in :data:`~repro.experiments.common.SCALES`).  It
then checks the target's claims (:mod:`repro.experiments.claims`) on the
cells it just tabulated: each claim that does not hold is one line on
stderr, and the exit status is 1.

Sweeps fan out over ``--jobs`` worker processes and are served from the
content-addressed run cache under ``results/cache/`` unless ``--no-cache``
is given; cached and parallel results are bit-identical to a fresh
sequential run.  Every invocation ends with the run-cache
hit/miss/skip tally, and ``--progress-jsonl`` streams per-cell progress
events (state, ETA, cache hits, worker utilization) for dashboards to
tail.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from functools import partial
from typing import Any, Callable, Dict, Tuple

from repro import cli
from repro.cli import add_sweep_args, sweep_from_args
from repro.experiments import claims
from repro.experiments.ablations import (
    format_ablation,
    format_study,
    run_checkpoint_ablation,
    run_design_ablations,
    verify_restore_equivalence,
)
from repro.experiments.campaign import campaign_table, run_campaign_grid
from repro.experiments.common import SCALES
from repro.experiments.complexity import analyze_complexity, format_complexity
from repro.experiments.fig5_heatdis import format_fig5, run_fig5
from repro.experiments.fig6_minimd import format_fig6, run_fig6_weak_scaling
from repro.experiments.fig7_views import format_fig7, run_fig7_census
from repro.experiments.overhead import (
    format_overhead_table,
    run_overhead_attribution,
)
from repro.experiments.partial_rollback import (
    format_partial_rollback,
    run_partial_rollback_comparison,
)
from repro.parallel import DEFAULT_TRACE_MAX_RECORDS
from repro.util.errors import ConfigError

#: what a target returns: ``{file name: table text}`` and the evidence
#: its claims are checked on
Output = Tuple[Dict[str, str], Any]


def _sweep(args: argparse.Namespace) -> Dict[str, Any]:
    return dict(jobs=args.jobs, cache=args.cache, progress=args.progress)


def _fig5(args: argparse.Namespace) -> Output:
    scale = args.scale
    data, weak = run_fig5(scale, **_sweep(args))
    servers = f"{scale.fig5_pfs} PFS server(s)"
    return {
        "fig5_data_scaling.txt": format_fig5(data, title=(
            f"Figure 5 (left): Heatdis data scaling, {scale.fig5_ranks} "
            f"ranks, {servers}")),
        "fig5_weak_scaling.txt": format_fig5(weak, title=(
            f"Figure 5 (right): Heatdis weak scaling at 1GB/node, "
            f"{servers}")),
    }, claims.Fig5.of(data, weak)


def _fig6(args: argparse.Namespace) -> Output:
    cells = run_fig6_weak_scaling(args.scale, **_sweep(args))
    title = f"Figure 6: MiniMD weak scaling, {args.scale.fig6_pfs} PFS server(s)"
    return ({"fig6_minimd.txt": format_fig6(cells, title=title)},
            {(c.strategy, c.n_ranks): c for c in cells})


def _fig7(args: argparse.Namespace) -> Output:
    rows = run_fig7_census(jobs=args.jobs, progress=args.progress)
    return {"fig7_views.txt": format_fig7(rows)}, rows


def _partial(args: argparse.Namespace) -> Output:
    result = run_partial_rollback_comparison(jobs=args.jobs,
                                             progress=args.progress)
    return {"partial_rollback.txt": format_partial_rollback(result)}, result


def _complexity(_args: argparse.Namespace) -> Output:
    report = analyze_complexity()
    return {"complexity.txt": format_complexity(report)}, report


def _overhead(_args: argparse.Namespace) -> Output:
    return {"overhead.txt": format_overhead_table(
        run_overhead_attribution())}, None


def _campaign(args: argparse.Namespace) -> Output:
    ledger = run_campaign_grid(
        seeds=(7,),
        trace_max_records=args.max_records,
        rules=args.rules,
        **_sweep(args),
    )
    if args.rules:
        fired = [r for r in ledger.runs if r.strategy != "none" and r.alerts]
        total = sum(r.alerts for r in fired)
        print(f"SLO rules ({args.rules}): {total} alert(s) fired")
        for r in fired:
            print(f"  [{r.label}] {r.alerts} alert(s)")
        print()
    return {"campaign.txt": campaign_table(ledger)}, ledger


def _ablation(args: argparse.Namespace) -> Output:
    studies = run_design_ablations(**_sweep(args))
    cells = run_checkpoint_ablation(**_sweep(args))
    outcome = verify_restore_equivalence()
    tables = {f"ablation_{name}.txt": format_study(name, rows)
              for name, rows in studies.items()}
    tables["ablation_checkpoint.txt"] = "\n".join([
        format_ablation(cells),
        f"restore equivalence: OK ({outcome['compared']} rank grids "
        "bit-identical across incremental/full and failed/clean runs)",
    ])
    return tables, studies


#: target -> ``fn(args) -> (tables, evidence)``; ``args`` carries the
#: scale row and the sweep flags
TARGETS: Dict[str, Callable[[argparse.Namespace], Output]] = {
    "fig5": _fig5,
    "ablation": _ablation,
    "fig6": _fig6,
    "fig7": _fig7,
    "partial": _partial,
    "complexity": _complexity,
    "overhead": _overhead,
    "campaign": _campaign,
}

#: the targets whose sweeps read a scale row (the rest have one size)
SCALED = ("fig5", "fig6")


def add_commands(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(run=_run)
    parser.add_argument("what", choices=[*TARGETS, "all"], nargs="?",
                        default="all")
    parser.add_argument("--full-scale", action="store_true",
                        help="the paper's node counts, written under "
                             "results/full_scale/ (fig5 and fig6 only)")
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
    targets = list(TARGETS) if args.what == "all" else [args.what]
    if args.full_scale:
        targets = [name for name in targets if name in SCALED]
        if not targets:
            raise ConfigError(f"{args.what} has no paper-scale row; "
                              f"--full-scale runs {' and '.join(SCALED)}")
    args.scale = SCALES["paper" if args.full_scale else "default"]
    args.cache, args.progress = sweep_from_args(args, args.progress_jsonl)
    out = pathlib.Path(args.scale.results)
    broken = []
    for i, name in enumerate(targets):
        if i:
            print("\n" + "=" * 72 + "\n")
        tables, evidence = TARGETS[name](args)
        out.mkdir(parents=True, exist_ok=True)
        for file, text in tables.items():
            (out / file).write_text(text + "\n")
        print("\n\n".join(tables.values()))
        broken += claims.failed(name, evidence)
    if args.progress is not None:
        args.progress.finish()
    if args.cache is not None:
        print()
        print(args.cache.summary())
    for line in broken:
        print(line, file=sys.stderr)
    return cli.EXIT_REGRESSION if broken else cli.EXIT_OK


main = partial(cli.main, tool="experiments")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
