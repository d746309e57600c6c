"""Differential trace CLI.

Usage (repository root, ``PYTHONPATH=src``)::

    # structurally compare two flight-recorder traces
    python -m repro.align diff a.trace.jsonl b.trace.jsonl [--json]
    python -m repro.align diff a.trace.jsonl b.trace.jsonl --structural-only

    # determinism audit: run one seeded cell twice, assert zero
    # divergences between the run and its replay
    python -m repro.align check --replay --app heatdis \
        --strategy fenix_kr_veloc --ranks 4 --kill-rank 2

    # record one run's trace for a later diff (supports a seeded
    # exponential failure plan via --failure-seed/--mtbf)
    python -m repro.align record --out a.trace.jsonl --app heatdis \
        --strategy fenix_kr_veloc --ranks 4 --failure-seed 7 --mtbf 120

    # find the first trace in an ordered series whose structure changed
    python -m repro.align bisect t0.jsonl t1.jsonl t2.jsonl ...

Exit codes follow :mod:`repro.report.compare`: 0 aligned / zero
divergences, 1 divergences found, 2 usage or load errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__, cli
from repro.align import ALIGN_SCHEMA
from repro.align.engine import align, first_divergence_report
from repro.cli import EXIT_OK, EXIT_REGRESSION, add_job_args, job_from_args
from repro.monitor import MonitorSuite
from repro.monitor.trace_io import read_trace, trace_meta, write_trace
from repro.sim.failures import ExponentialFailures
from repro.util.errors import ConfigError


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff", help="structurally compare two (or more) trace files")
    diff.set_defaults(run=_diff)
    diff.add_argument("traces", nargs="+",
                      help="flight-recorder trace JSONL files; the first "
                           "is the baseline every other is aligned against")
    diff.add_argument("--json", action="store_true",
                      help="machine-readable divergence report on stdout")
    diff.add_argument("--structural-only", action="store_true",
                      help="compare logical keys only (ignore value drift)")
    diff.add_argument("--out", default=None,
                      help="also write the JSON report here")

    check = sub.add_parser(
        "check", help="determinism audit: run a seeded cell twice and "
                      "assert zero divergences")
    check.set_defaults(run=_check)
    check.add_argument("--replay", action="store_true",
                       help="required: re-run the spec and align "
                            "(reserved for future trace-vs-spec modes)")
    check.add_argument("--json", action="store_true")
    check.add_argument("--out", default=None,
                       help="also write the JSON report here")
    _add_run_args(check)

    record = sub.add_parser(
        "record", help="run one cell and persist its flight-recorder trace")
    record.set_defaults(run=_record)
    record.add_argument("--out", required=True,
                        help="trace JSONL destination")
    _add_run_args(record)

    bis = sub.add_parser(
        "bisect", help="find the first trace of an ordered series whose "
                       "structure diverged from the first")
    bis.set_defaults(run=_bisect)
    bis.add_argument("traces", nargs="+",
                     help="ordered trace files; traces[0] is the baseline")
    bis.add_argument("--json", action="store_true")
    bis.add_argument("--structural-only", action="store_true")


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    add_job_args(sub, default_strategy="fenix_kr_veloc")
    sub.add_argument("--failure-seed", type=int, default=None,
                     help="seeded exponential failure plan instead of "
                          "--kill-rank")
    sub.add_argument("--mtbf", type=float, default=120.0,
                     help="per-rank MTBF (simulated s) for --failure-seed")
    sub.add_argument("--max-failures", type=int, default=1,
                     help="failure cap for --failure-seed")


def _run_once(args: argparse.Namespace):
    """One monitored job; returns its live Trace (deterministic per
    args, so two calls record identical streams)."""
    suite = MonitorSuite()
    observe: Dict[str, Any] = dict(monitor=suite)
    if args.failure_seed is not None:
        observe["plan"] = ExponentialFailures(
            args.mtbf, seed=args.failure_seed,
            max_failures=args.max_failures,
        )
    job_from_args(args)(**observe)
    return suite._trace


def _report_doc(report: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    doc = {"schema": ALIGN_SCHEMA, "repro_version": __version__}
    doc.update(extra)
    doc.update(report)
    return doc


def _emit(doc: Dict[str, Any], as_json: bool,
          out: Optional[str] = None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if as_json:
        print(text)


def _render_report(label: str, doc: Dict[str, Any]) -> str:
    counts = doc["counts"]
    lines = [
        f"{label}: {doc['records_a']} vs {doc['records_b']} records -- "
        f"{counts['matched']} matched, {counts['missing']} missing, "
        f"{counts['extra']} extra, {counts['value']} value-drifted, "
        f"{counts['reorder']} reordered"
        + (f", {counts['excused']} excused" if counts["excused"] else "")
    ]
    for note in doc.get("notes", []):
        lines.append(f"  note: {note}")
    first = doc.get("first")
    if first:
        lines.append(
            f"  first divergence [{first['layer']}] t={first['time']:.6f}: "
            f"{first['summary']}"
        )
        for brief in first.get("briefs", []):
            lines.append(f"    {brief}")
        if first.get("context_a"):
            lines.append("  context (run A):")
            for brief in first["context_a"]:
                lines.append(f"    {brief}")
        if first.get("context_b"):
            lines.append("  context (run B):")
            for brief in first["context_b"]:
                lines.append(f"    {brief}")
        down = doc.get("downstream", {})
        wall = down.get("wall_time", {})
        if wall:
            lines.append(
                f"  downstream: wall {wall['a']:.3f}s -> {wall['b']:.3f}s "
                f"({wall['delta']:+.3f}s)"
            )
        lat = down.get("recovery_latency", {})
        if lat and lat.get("delta") is not None:
            lines.append(
                f"  downstream: recovery latency {lat['a']:.3f}s -> "
                f"{lat['b']:.3f}s ({lat['delta']:+.3f}s)"
            )
    else:
        lines.append("  zero divergences")
    return "\n".join(lines)


def _diff(args: argparse.Namespace) -> int:
    if len(args.traces) < 2:
        raise ConfigError("diff needs at least two traces")
    loaded = [read_trace(path) for path in args.traces]
    base_records, base_meta = loaded[0]
    pairs: List[Dict[str, Any]] = []
    divergent = False
    for path, (records, meta) in zip(args.traces[1:], loaded[1:]):
        alignment = align(
            base_records, records, meta_a=base_meta, meta_b=meta,
            structural_only=args.structural_only,
        )
        report = first_divergence_report(alignment, base_records, records)
        report["a"] = args.traces[0]
        report["b"] = path
        pairs.append(report)
        divergent = divergent or alignment.divergent
        if not args.json:
            print(_render_report(f"{args.traces[0]} vs {path}", report))
    doc = _report_doc({"pairs": pairs, "divergent": divergent},
                      mode="diff",
                      structural_only=bool(args.structural_only))
    _emit(doc, args.json, args.out)
    return EXIT_REGRESSION if divergent else EXIT_OK


def _check(args: argparse.Namespace) -> int:
    if not args.replay:
        raise ConfigError(
            "check requires --replay (run the spec twice and align)")
    trace_a = _run_once(args)
    trace_b = _run_once(args)
    records_a, records_b = list(trace_a), list(trace_b)
    alignment = align(records_a, records_b,
                      meta_a=trace_meta(trace_a), meta_b=trace_meta(trace_b))
    report = first_divergence_report(alignment, records_a, records_b)
    doc = _report_doc(report, mode="check-replay",
                      spec={"app": args.app, "strategy": args.strategy,
                            "ranks": args.ranks, "iters": args.iters,
                            "seed": args.seed,
                            "kill_rank": args.kill_rank,
                            "failure_seed": args.failure_seed})
    _emit(doc, args.json, args.out)
    if not args.json:
        label = (f"determinism audit ({args.app}/{args.strategy}/"
                 f"r{args.ranks}, seed {args.seed})")
        print(_render_report(label, report))
    return EXIT_REGRESSION if alignment.divergent else EXIT_OK


def _record(args: argparse.Namespace) -> int:
    n = write_trace(args.out, _run_once(args))
    print(f"recorded {n} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _bisect(args: argparse.Namespace) -> int:
    if len(args.traces) < 2:
        raise ConfigError("bisect needs at least two traces")
    base_records, base_meta = read_trace(args.traces[0])
    first_bad: Optional[Tuple[int, str]] = None
    summary: Optional[Dict[str, Any]] = None
    for index, path in enumerate(args.traces[1:], start=1):
        records, meta = read_trace(path)
        alignment = align(base_records, records,
                          meta_a=base_meta, meta_b=meta,
                          structural_only=args.structural_only)
        if alignment.divergent:
            first_bad = (index, path)
            summary = first_divergence_report(
                alignment, base_records, records)
            break
    doc = _report_doc({
        "baseline": args.traces[0],
        "inspected": len(args.traces) - 1,
        "first_divergent_index": first_bad[0] if first_bad else None,
        "first_divergent_trace": first_bad[1] if first_bad else None,
        "report": summary,
    }, mode="bisect")
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    elif first_bad is None:
        print(f"all {len(args.traces) - 1} trace(s) align with "
              f"{args.traces[0]}")
    else:
        print(f"first structural change at index {first_bad[0]}: "
              f"{first_bad[1]}")
        assert summary is not None
        print(_render_report(f"{args.traces[0]} vs {first_bad[1]}", summary))
    return EXIT_REGRESSION if first_bad else EXIT_OK


main = partial(cli.main, tool="align")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
