"""Telemetry CLI: run an experiment with full instrumentation and export.

Usage (repository root, ``PYTHONPATH=src``)::

    python -m repro.telemetry run --app heatdis --strategy fenix_veloc \
        --ranks 4 --kill-rank 2 --out /tmp/run1 --timeline
    python -m repro.telemetry validate /tmp/run1/trace.json
    python -m repro.telemetry diff /tmp/run1/metrics.json /tmp/run2/metrics.json

``run`` executes one named experiment with telemetry enabled, writes
``trace.json`` (Chrome trace-event format -- load it at https://ui.perfetto.dev
or chrome://tracing) and ``metrics.json`` into ``--out``, validates the
exported trace, and prints a metrics digest (plus the failure timeline
with ``--timeline``).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from repro import cli
from repro.cli import add_job_args, job_from_args, load_json
from repro.report.compare import (
    Delta,
    add_budget_flag,
    budget_verdict,
    format_deltas,
    over_budget,
)
from repro.telemetry.collector import Telemetry
from repro.telemetry.export import (
    diff_metrics,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.timeline import failure_timeline


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment with telemetry on")
    run.set_defaults(run=_run)
    add_job_args(run, default_strategy="fenix_veloc")
    run.add_argument("--bytes", type=float, default=16e6,
                     help="modelled checkpoint bytes per rank")
    run.add_argument("--out", default="telemetry-out",
                     help="output directory for trace.json / metrics.json")
    run.add_argument("--timeline", action="store_true",
                     help="print the failure timeline")
    run.add_argument("--timeline-limit", type=int, default=120)

    val = sub.add_parser("validate",
                         help="validate an exported trace-event JSON file")
    val.set_defaults(run=_validate)
    val.add_argument("trace", help="path to trace.json")

    diff = sub.add_parser("diff", help="compare two metrics.json files")
    diff.set_defaults(run=_diff)
    diff.add_argument("a")
    diff.add_argument("b")
    add_budget_flag(diff, 0.0,
                    "relative tolerance (0.05 = within 5%%); exits "
                    "non-zero when any metric differs by more "
                    "(default 0: any difference fails)")


def _run(args: argparse.Namespace) -> int:
    tel = Telemetry(enabled=True)
    job = job_from_args(args, modeled_bytes_per_rank=args.bytes)
    report = job(telemetry=tel)

    # the runner recorded a legacy Trace alongside the spans and handed
    # it back on the telemetry object
    trace = tel.trace
    run_info = {
        "app": report.app,
        "strategy": report.strategy,
        "n_ranks": report.n_ranks,
        "wall_time": report.wall_time,
        "attempts": report.attempts,
        "failures": report.failures,
    }

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    metrics_path = os.path.join(args.out, "metrics.json")
    doc = write_chrome_trace(trace_path, tel, trace=trace, run_info=run_info)
    write_metrics(metrics_path, tel, run_info=run_info)

    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems[:20]:
            print(f"INVALID: {p}", file=sys.stderr)
        return 1

    merged = tel.merged_metrics().snapshot()
    print(f"{report.app} / {report.strategy}: wall={report.wall_time:.3f}s "
          f"attempts={report.attempts} failures={report.failures}")
    print(f"wrote {trace_path} ({len(doc['traceEvents'])} events, valid) "
          f"and {metrics_path}")
    counters = merged["counters"]
    if counters:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name} = {value:g}")
    if args.timeline:
        print()
        print(failure_timeline(tel, trace=trace, limit=args.timeline_limit))
    return 0


def _validate(args: argparse.Namespace) -> int:
    doc = load_json(args.trace)
    problems = validate_chrome_trace(doc)
    if problems:
        for p in problems:
            print(f"INVALID: {p}", file=sys.stderr)
        return 1
    n = len(doc.get("traceEvents", []))
    print(f"{args.trace}: valid ({n} events)")
    return 0


def _diff(args: argparse.Namespace) -> int:
    rows = diff_metrics(load_json(args.a), load_json(args.b))
    if not rows:
        print("metrics identical")
        return 0
    # symmetric mode: telemetry diffs care about drift in either
    # direction, unlike the profile CLI's growth-only overhead budget
    deltas = [Delta(name, va, vb) for name, va, vb in rows]
    failing = over_budget(deltas, args.budget, mode="symmetric")
    for line in format_deltas(deltas, failing, mode="symmetric"):
        print(line)
    code, verdict = budget_verdict(failing, args.budget, what="metric")
    print(verdict, file=sys.stderr if failing else sys.stdout)
    return code


main = partial(cli.main, tool="telemetry")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
