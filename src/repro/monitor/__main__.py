"""Flight-recorder CLI for the protocol monitors.

Usage (repository root, ``PYTHONPATH=src``)::

    # replay a recorded trace file through the invariant monitors
    python -m repro.monitor check run.trace.jsonl

    # run one failure-injection job live with monitors attached,
    # keeping the trace for post-mortem tooling
    python -m repro.monitor check --app heatdis --strategy fenix_veloc \
        --ranks 4 --kill-rank 1 --save-trace run.trace.jsonl

    # reconstruct every rank's protocol state at a simulated time
    python -m repro.monitor state run.trace.jsonl --at 12.5

    # walk one failure from kill to re-entry
    python -m repro.monitor explain run.trace.jsonl --rank 1

    # the CI campaign: a strategy x failure matrix under strict monitors
    python -m repro.monitor smoke --out monitor-smoke

Exit codes: 0 clean, 1 invariant violations found, 2 usage/load errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import takewhile
from typing import List, Tuple

from repro import cli
from repro.cli import add_job_args, build_job, job_from_args
from repro.monitor.base import MonitorSuite
from repro.monitor.explain import explain_failure
from repro.monitor.state import ProtocolStateTracker, render_state
from repro.monitor.trace_io import JsonlTraceSink, read_trace, write_trace
from repro.util.errors import ConfigError, ReproError

#: the smoke campaign: (app, strategy, kill rank).  One rank kill,
#: replaced from the spare pool, on both apps and under fenix_veloc,
#: fenix_kr_veloc and fenix_kr_imr.  One row kills rank 0, so a spare
#: adopts comm rank 0; no row runs fenix_kr_partial or the elastic
#: shrink path
SMOKE_SCENARIOS: Tuple[Tuple[str, str, int], ...] = (
    ("heatdis", "fenix_veloc", 1),
    ("heatdis", "fenix_kr_veloc", 2),
    ("heatdis", "fenix_kr_imr", 1),
    ("minimd", "fenix_kr_veloc", 0),
    ("minimd", "fenix_kr_imr", 1),
)


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="replay a trace file (or a live run) through the "
                      "invariant monitors")
    check.set_defaults(run=_check)
    check.add_argument("trace", nargs="?", default=None,
                       help="trace file (JSONL); omit to run live")
    check.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    add_job_args(check, default_strategy="fenix_veloc")
    check.add_argument("--save-trace", default=None,
                       help="live runs: write the recorded trace here")

    state = sub.add_parser(
        "state", help="reconstruct every rank's protocol state at a time")
    state.set_defaults(run=_state)
    state.add_argument("trace", help="trace file (JSONL)")
    state.add_argument("--at", type=float, default=None,
                       help="simulated time cutoff (default: end of trace)")

    explain = sub.add_parser(
        "explain", help="walk one failure from kill to re-entry")
    explain.set_defaults(run=_explain)
    explain.add_argument("trace", help="trace file (JSONL)")
    explain.add_argument("--rank", type=int, default=None,
                         help="world rank whose death to explain "
                              "(default: first kill in the trace)")
    explain.add_argument("--occurrence", type=int, default=0,
                         help="which kill of that rank (0-based)")

    smoke = sub.add_parser(
        "smoke", help="failure-injection campaign with strict monitors "
                      "(the CI gate)")
    smoke.set_defaults(run=_smoke)
    smoke.add_argument("--out", default="monitor-smoke",
                       help="directory for per-scenario trace files")
    smoke.add_argument("--iters", type=int, default=30)
    smoke.add_argument("--interval", type=int, default=10)
    smoke.add_argument("--ranks", type=int, default=4)


def _check(args: argparse.Namespace) -> int:
    suite = MonitorSuite()
    if args.trace is not None:
        if args.save_trace:
            raise ConfigError("--save-trace records a live run; "
                              "omit the trace file to run one")
        records, meta = read_trace(args.trace)
        suite.replay(records)
        suite.finish()
        suite.note_dropped(int(meta.get("dropped") or 0),
                           tuple(meta["dropped_window"])
                           if meta.get("dropped_window") else None,
                           torn=int(meta.get("torn") or 0))
    else:
        # live runs stream the flight recorder as records are emitted,
        # so a tailer (repro.live tail) can watch the run unfold
        sink = JsonlTraceSink(args.save_trace) if args.save_trace else None
        try:
            job_from_args(args)(monitor=suite, trace_sink=sink)
        finally:
            if sink is not None:
                sink.close()
        if sink is not None:
            print(f"streamed {sink.records_written} records to "
                  f"{args.save_trace}", file=sys.stderr)
    if args.json:
        print(json.dumps(suite.to_dict(), indent=1))
    else:
        print(suite.report())
    return 1 if suite.violations else 0


def _state(args: argparse.Namespace) -> int:
    records, _meta = read_trace(args.trace)
    if args.at is not None:
        records = takewhile(lambda rec: rec.time <= args.at, records)
    tracker = ProtocolStateTracker().replay(records)
    print(render_state(tracker, at=args.at))
    return 0


def _explain(args: argparse.Namespace) -> int:
    records, meta = read_trace(args.trace)
    print(explain_failure(records, meta, rank=args.rank,
                          occurrence=args.occurrence))
    return 0


def _smoke(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    failures: List[str] = []
    for app, strategy, kill_rank in SMOKE_SCENARIOS:
        label = f"{app}-{strategy}-kill{kill_rank}"
        suite = MonitorSuite()
        try:
            job = build_job(app, strategy, args.ranks, args.iters,
                            args.interval, kill_rank=kill_rank)
            job(monitor=suite)
        except ReproError as exc:
            print(f"{label}: RUN FAILED: {exc}")
            failures.append(label)
            continue
        path = os.path.join(args.out, f"{label}.trace.jsonl")
        write_trace(path, suite._trace)
        if suite.violations:
            print(f"{label}: {len(suite.violations)} violation(s) "
                  f"(trace: {path})")
            print(suite.report())
            failures.append(label)
        else:
            print(f"{label}: clean ({path})")
    if failures:
        print(f"{len(failures)}/{len(SMOKE_SCENARIOS)} scenarios failed: "
              + ", ".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(SMOKE_SCENARIOS)} scenarios clean")
    return 0


main = partial(cli.main, tool="monitor")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
