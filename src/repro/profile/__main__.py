"""Profiler CLI: cost attribution, flame graphs, budgets.

Usage (repository root, ``PYTHONPATH=src``)::

    python -m repro.profile report --strategy fenix_kr_veloc \
        --ranks 4 --kill-rank 2 --json ledger.json
    python -m repro.profile flamegraph --strategy fenix_kr_veloc \
        --ranks 4 --kill-rank 2 --out profile.folded
    python -m repro.profile diff baseline.json current.json --budget 0.05

``report`` runs one instrumented experiment and prints the exact
per-rank time ledger (categories sum to makespan -- enforced, not
claimed).  It exits non-zero when the trace ring buffer dropped records
(the attribution would silently miss work) unless ``--allow-drops`` is
given.  ``diff`` compares two ledger JSON files against a relative
per-category budget -- the CI overhead-regression mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from repro import cli
from repro.cli import add_job_args, job_from_args, load_json
from repro.profile.categories import CATEGORIES
from repro.profile.flamegraph import write_folded
from repro.profile.ledger import ConservationError, build_ledger, format_ledger
from repro.report.compare import (
    add_budget_flag,
    budget_verdict,
    compare_scalars,
    format_deltas,
    over_budget,
)
from repro.util.errors import ConfigError


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Run-construction flags shared by report/flamegraph (the job
    scaffold's, plus this CLI's own two)."""
    add_job_args(parser, default_strategy="fenix_kr_veloc")
    parser.add_argument("--bytes", type=float, default=16e6,
                        help="modelled checkpoint bytes per rank")
    parser.add_argument("--max-records", type=int, default=None,
                        help="legacy-trace ring-buffer size (drops are "
                             "surfaced in the report)")


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="per-rank time ledger of one run")
    rep.set_defaults(run=_report)
    _add_run_args(rep)
    rep.add_argument("--json", default=None,
                     help="also write the ledger as JSON to this path")
    rep.add_argument("--no-per-rank", action="store_true",
                     help="print only the mean row")
    rep.add_argument("--allow-drops", action="store_true",
                     help="exit 0 even when trace records were dropped")

    fg = sub.add_parser("flamegraph",
                        help="folded-stack export (speedscope/flamegraph.pl)")
    fg.set_defaults(run=_flamegraph)
    _add_run_args(fg)
    fg.add_argument("--out", default="profile.folded",
                    help="output path for the folded stacks")

    diff = sub.add_parser("diff",
                          help="compare two ledger JSON files per category")
    diff.set_defaults(run=_diff)
    diff.add_argument("baseline")
    diff.add_argument("current")
    add_budget_flag(diff, 0.05,
                    "max relative growth per category before "
                    "failing (default 0.05 = 5%%)")
    diff.add_argument("--abs-floor", type=float, default=1e-3,
                      help="ignore categories smaller than this many "
                           "seconds in both ledgers")


def _execute_run(args: argparse.Namespace):
    """Run one instrumented experiment; returns (telemetry, report).
    Bad arguments raise ``ConfigError`` (:func:`repro.cli.main` turns it
    into exit 2)."""
    from repro.telemetry.collector import Telemetry

    tel = Telemetry(enabled=True)
    job = job_from_args(args, modeled_bytes_per_rank=args.bytes)
    report = job(telemetry=tel, profile=True,
                 trace_max_records=args.max_records)
    return tel, report


def _report(args: argparse.Namespace) -> int:
    tel, report = _execute_run(args)
    try:
        ledger = build_ledger(tel, wall_time=report.wall_time)
    except ConservationError as exc:
        print(f"CONSERVATION VIOLATED: {exc}", file=sys.stderr)
        return 1
    print(f"{report.app} / {report.strategy}: "
          f"wall={report.wall_time:.3f}s attempts={report.attempts} "
          f"failures={report.failures}")
    print(format_ledger(ledger, per_rank=not args.no_per_rank))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(ledger.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if ledger.dropped and not args.allow_drops:
        print(f"ERROR: {ledger.dropped} trace records dropped -- the "
              "attribution above may be missing work (re-run with a "
              "larger --max-records, or pass --allow-drops to accept)",
              file=sys.stderr)
        return 1
    return 0


def _flamegraph(args: argparse.Namespace) -> int:
    tel, report = _execute_run(args)
    n = write_folded(args.out, tel)
    print(f"wrote {args.out}: {n} stacks over {report.wall_time:.3f}s "
          f"simulated ({report.app}/{report.strategy}) -- load it at "
          "https://www.speedscope.app or feed it to flamegraph.pl")
    return 0


def _load_mean(path: str) -> dict:
    mean = load_json(path).get("mean")
    if not isinstance(mean, dict):
        raise ConfigError(
            f"cannot load {path}: not a ledger JSON (missing 'mean')")
    return mean


def _diff(args: argparse.Namespace) -> int:
    base = _load_mean(args.baseline)
    cur = _load_mean(args.current)
    deltas = compare_scalars(
        {c: float(base.get(c, 0.0)) for c in CATEGORIES},
        {c: float(cur.get(c, 0.0)) for c in CATEGORIES},
        keys=CATEGORIES,
    )
    failing = over_budget(deltas, args.budget, mode="growth",
                          abs_floor=args.abs_floor)
    for line in format_deltas(deltas, failing, mode="growth",
                              value_format="{:.6f}"):
        print(line)
    code, verdict = budget_verdict(failing, args.budget, what="category")
    print(verdict, file=sys.stderr if failing else sys.stdout)
    return code


main = partial(cli.main, tool="profile")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
