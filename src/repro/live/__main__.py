"""Live observability CLI.

Usage (repository root, ``PYTHONPATH=src``)::

    # live dashboard over a campaign progress stream or a streaming
    # flight-recorder trace, as the file is written
    python -m repro.live tail campaign.progress.jsonl
    python -m repro.live tail run.trace.jsonl --rules examples/slo_rules.json

    # single frame (CI artifact): render what is there now and exit
    python -m repro.live tail campaign.progress.jsonl --once --out frame.txt

    # evaluate an SLO rules file against a recorded trace
    python -m repro.live check run.trace.jsonl --rules examples/slo_rules.json

Exit codes follow :mod:`repro.cli`: 0 clean, 1 SLO alerts
fired (``check``), 2 usage/load errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Any, Dict, Optional

from repro import cli
from repro.cli import EXIT_OK, EXIT_REGRESSION, open_input
from repro.live.dashboard import (
    CampaignView,
    render_campaign_frame,
    render_trace_frame,
)
from repro.live.rules import LiveSession, RuleSet, load_rules
from repro.sim.trace import TraceRecord
from repro.util.schema import warn_on_mismatch


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser(
        "tail", help="live dashboard over a progress or trace JSONL file")
    tail.set_defaults(run=_tail)
    tail.add_argument("path", help="campaign progress JSONL or "
                                   "flight-recorder trace JSONL")
    tail.add_argument("--rules", default=None,
                      help="SLO rules file (trace mode)")
    tail.add_argument("--window", type=float, default=1.0,
                      help="aggregation window, simulated seconds")
    tail.add_argument("--interval", type=float, default=0.5,
                      help="host seconds between polls")
    tail.add_argument("--timeout", type=float, default=60.0,
                      help="exit after this many host seconds without "
                           "new data (0 = wait forever)")
    tail.add_argument("--once", action="store_true",
                      help="render one frame from current content and exit")
    tail.add_argument("--out", default=None,
                      help="also write the final frame to this file")
    tail.add_argument("--width", type=int, default=78)

    check = sub.add_parser(
        "check", help="evaluate SLO rules against a recorded trace")
    check.set_defaults(run=_check)
    check.add_argument("trace", help="flight-recorder trace JSONL")
    check.add_argument("--rules", required=True, help="SLO rules file")
    check.add_argument("--window", type=float, default=1.0)
    check.add_argument("--json", action="store_true",
                       help="machine-readable result on stdout")


# -- tail -----------------------------------------------------------------


class _TailState:
    """Folds one JSONL stream, auto-detecting which stream it is."""

    def __init__(self, rules: Optional[RuleSet], window_s: float) -> None:
        self.mode: Optional[str] = None  # "progress" | "trace"
        self.view = CampaignView()
        self.session = LiveSession(rules=rules, window_s=window_s)
        self.meta: Dict[str, Any] = {}
        self.dirty = False

    def feed(self, obj: Dict[str, Any]) -> None:
        if self.mode is None:
            self.mode = "progress" if "event" in obj else "trace"
        if self.mode == "progress":
            if "event" in obj:
                if obj.get("event") == "campaign_start":
                    from repro.parallel.progress import PROGRESS_SCHEMA

                    warn_on_mismatch(
                        "progress stream", PROGRESS_SCHEMA,
                        found_schema=obj.get("schema"),
                        found_version=obj.get("repro_version"))
                self.view.feed(obj)
                self.dirty = True
            return
        if "meta" in obj:
            meta = obj["meta"] or {}
            from repro.monitor.trace_io import FORMAT_VERSION

            warn_on_mismatch(
                "trace stream", FORMAT_VERSION,
                found_schema=meta.get("schema", meta.get("version")),
                found_version=meta.get("repro_version"))
            self.meta.update(meta)
            self.dirty = True
            return
        try:
            rec = TraceRecord.from_dict(obj)
        except (KeyError, TypeError, ValueError):
            return  # foreign line in the stream; a viewer keeps going
        self.session.feed(rec)
        self.dirty = True

    @property
    def finished(self) -> bool:
        return self.mode == "progress" and self.view.done

    def frame(self, width: int) -> str:
        if self.mode == "progress":
            return render_campaign_frame(self.view, width=width)
        return render_trace_frame(
            self.session.aggregator, alerts=self.session.alerts,
            meta=self.meta, width=width)


def _tail(args: argparse.Namespace) -> int:
    rules = load_rules(args.rules) if args.rules else None
    fh = open_input(args.path)
    state = _TailState(rules, args.window)
    is_tty = sys.stdout.isatty()
    pending = ""
    last_data = time.monotonic()
    frame = ""
    with fh:
        while True:
            chunk = fh.readline()
            if chunk:
                pending += chunk
                if not pending.endswith("\n"):
                    continue  # writer mid-line; wait for the rest
                raw, pending = pending.strip(), ""
                last_data = time.monotonic()
                if raw:
                    try:
                        state.feed(json.loads(raw))
                    except json.JSONDecodeError:
                        pass  # torn line in a live file; keep tailing
                continue
            # caught up with the writer
            if state.dirty or not frame:
                frame = state.frame(args.width)
                state.dirty = False
                if is_tty and not args.once:
                    sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                    sys.stdout.flush()
            if args.once or state.finished:
                break
            if (args.timeout
                    and time.monotonic() - last_data > args.timeout):
                break
            time.sleep(max(args.interval, 0.05))
    if state.mode == "trace":
        state.session.finish()  # final rule evaluation
        frame = state.frame(args.width)
    if not is_tty or args.once:
        print(frame)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(frame + "\n")
    return EXIT_OK


# -- check ----------------------------------------------------------------


def _check(args: argparse.Namespace) -> int:
    from repro.monitor.trace_io import read_trace

    rules = load_rules(args.rules)
    records, meta = read_trace(args.trace)
    session = LiveSession(rules=rules, window_s=args.window)
    # an empty trace has nothing to evaluate: "no complete windows" is a
    # report, not an SLO pass or failure, so it exits clean.  A trace
    # shorter than the smallest rule window still gets the end-of-stream
    # evaluation (an alert over a partial window is real evidence), but
    # a silent pass on one is labelled for what it is.
    min_window = min((r.window_s for r in rules), default=0.0)
    span = records[-1].time - records[0].time if records else 0.0
    complete_windows = bool(records) and span >= min_window
    if records:
        session.replay(records)
        alerts = session.finish()
    else:
        alerts = []
    if args.json:
        print(json.dumps({
            "trace": args.trace,
            "rules": args.rules,
            "records": len(records),
            "meta": meta,
            "complete_windows": complete_windows,
            "alerts": [a.to_dict() for a in alerts],
            "snapshot": session.aggregator.snapshot(),
        }, indent=1, sort_keys=True))
    else:
        print(f"{args.trace}: {len(records)} records, "
              f"{len(rules)} rule(s), {len(alerts)} alert(s)")
        if meta.get("torn"):
            print(f"  the file ends in {meta['torn']} torn line(s): the "
                  f"record being written there was not evaluated")
        if not records:
            print("  no complete windows: the trace is empty; "
                  "nothing to evaluate")
        elif not complete_windows and not alerts:
            print(f"  no complete windows: trace spans {span:.6g}s, "
                  f"shorter than the smallest rule window "
                  f"({min_window:.6g}s); clean, but on partial "
                  f"evidence")
        for alert in alerts:
            print("  " + alert.render())
            for brief in alert.records:
                print("      " + brief)
    return EXIT_REGRESSION if alerts else EXIT_OK


main = partial(cli.main, tool="live")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
