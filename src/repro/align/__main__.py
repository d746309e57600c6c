"""Differential trace CLI.

Usage (repository root, ``PYTHONPATH=src``)::

    # structurally compare two flight-recorder traces
    python -m repro.align diff a.trace.jsonl b.trace.jsonl [--json]
    python -m repro.align diff a.trace.jsonl b.trace.jsonl --structural-only

    # align an ordered series pair by pair against its first trace
    python -m repro.align diff t0.jsonl t1.jsonl t2.jsonl ...

    # determinism audit: run_job(determinism_audit=True) on one seeded
    # cell; a trace or run-report divergence between the run and its
    # replay fails it (--failure-seed/--mtbf: an exponential failure plan)
    python -m repro.align check --app heatdis \
        --strategy fenix_kr_veloc --ranks 4 --kill-rank 2

Traces to diff are recorded by ``python -m repro.monitor check ...
--save-trace run.trace.jsonl``.

Exit codes follow :mod:`repro.report.compare`: 0 aligned / zero
divergences, 1 divergences found, 2 usage or load errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Dict, List, Optional

from repro import __version__, cli
from repro.align import ALIGN_SCHEMA
from repro.align.engine import align, first_divergence_report
from repro.cli import EXIT_OK, EXIT_REGRESSION, add_job_args, job_from_args
from repro.monitor.trace_io import read_trace
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
        "check", help="determinism audit: run a seeded cell and its "
                      "replay, and assert zero divergences")
    check.set_defaults(run=_check)
    check.add_argument("--json", action="store_true")
    check.add_argument("--out", default=None,
                       help="also write the JSON report here")
    add_job_args(check, default_strategy="fenix_kr_veloc")
    check.add_argument("--failure-seed", type=int, default=None,
                       help="seeded exponential failure plan instead of "
                            "--kill-rank")
    check.add_argument("--mtbf", type=float, default=120.0,
                       help="per-rank MTBF (simulated s) for --failure-seed")
    check.add_argument("--max-failures", type=int, default=1,
                       help="failure cap for --failure-seed")


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


def _first_lines(first: Dict[str, Any]) -> List[str]:
    """A divergence's headline and its own record briefs."""
    return [f"  first divergence [{first['layer']}] t={first['time']:.6f}: "
            f"{first['summary']}",
            *(f"    {brief}" for brief in first.get("briefs", []))]


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
        lines.extend(_first_lines(first))
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
    observe: Dict[str, Any] = {}
    if args.failure_seed is not None and args.kill_rank is not None:
        raise ConfigError("--kill-rank and --failure-seed are two failure "
                          "plans; give one")
    if args.failure_seed is not None:
        observe["plan"] = ExponentialFailures(
            args.mtbf, seed=args.failure_seed,
            max_failures=args.max_failures,
        )
    divergences = job_from_args(args)(determinism_audit=True,
                                      **observe).divergences
    doc = _report_doc({"divergent": bool(divergences),
                       "divergences": divergences},
                      mode="check-replay",
                      spec={"app": args.app, "strategy": args.strategy,
                            "ranks": args.ranks, "iters": args.iters,
                            "seed": args.seed,
                            "kill_rank": args.kill_rank,
                            "failure_seed": args.failure_seed})
    _emit(doc, args.json, args.out)
    if not args.json:
        label = (f"determinism audit ({args.app}/{args.strategy}/"
                 f"r{args.ranks}, seed {args.seed})")
        if divergences:
            print(f"{label}: {len(divergences)} divergence(s)")
            print("\n".join(_first_lines(divergences[0])))
        else:
            print(f"{label}: zero divergences")
    return EXIT_REGRESSION if divergences else EXIT_OK


main = partial(cli.main, tool="align")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
