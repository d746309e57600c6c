"""Profiler CLI: cost attribution, flame graphs, budgets.

Usage (repository root, ``PYTHONPATH=src``)::

    python -m repro.profile report --strategy fenix_kr_veloc \
        --ranks 4 --kill-rank 2 --json ledger.json
    python -m repro.profile flamegraph --strategy fenix_kr_veloc \
        --ranks 4 --kill-rank 2 --out profile.folded

``report`` runs one instrumented experiment and prints the exact
per-rank time ledger (categories sum to makespan -- enforced, not
claimed).  It exits non-zero when the trace ring buffer dropped records
(the attribution would silently miss work) unless ``--allow-drops`` is
given.  Two ledger JSON files are compared per category by
``python -m repro.report diff``, the one budget gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from repro import cli
from repro.cli import add_job_args, job_from_args
from repro.profile.flamegraph import write_folded
from repro.profile.ledger import ConservationError, build_ledger, format_ledger


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


main = partial(cli.main, tool="profile")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
