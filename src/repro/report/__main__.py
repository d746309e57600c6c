"""Campaign report CLI: run, render, score, and gate campaigns.

Usage (repository root, ``PYTHONPATH=src``)::

    # run the default multi-seed, multi-strategy campaign and write
    # report.html + campaign.json + scorecard.json + progress.jsonl
    python -m repro.report [run] --seeds 7,11,13 --ranks 8 --jobs 4 \
        --out report-out

    # re-render / inspect an existing campaign ledger
    python -m repro.report render report-out/campaign.json --out r.html
    python -m repro.report scorecard report-out/campaign.json

    # CI gate: exit 1 when a tracked scorecard metric regresses past
    # the budget (baseline/current are ledger or scorecard JSON)
    python -m repro.report diff results/campaign_baseline.json \
        report-out/scorecard.json --budget 0.10

``run`` with no subcommand is the default.  The HTML report is fully
self-contained (inline CSS/SVG, embedded timelines and flame stacks, no
network), so it works as a CI artifact or over ``file://`` unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import List, Optional

from repro import cli
from repro.cli import EXIT_OK, add_sweep_args, load_json, sweep_from_args
from repro.report.compare import (
    add_budget_flag,
    budget_verdict,
    format_deltas,
)
from repro.report.html import render_html
from repro.report.ledger import (
    CampaignLedger,
    build_scorecard,
    flag_anomalies,
    format_scorecard,
    scorecard_regressions,
)
from repro.util.errors import ConfigError

#: default relative budget for the scorecard diff gate: simulated
#: metrics are deterministic, so 10% headroom only forgives intentional
#: small model adjustments, not behavior changes
DEFAULT_DIFF_BUDGET = 0.10


def _int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def add_commands(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a seeded campaign and render "
                                     "the report (the default)")
    run.set_defaults(run=_run)
    # bare `python -m repro.report` = `run` with its defaults
    parser.set_defaults(run=lambda _args: _run(run.parse_args([])))
    run.add_argument("--seeds", type=_int_list, default=None,
                     metavar="S1,S2,...",
                     help="failure-plan seeds (default 7,11,13)")
    run.add_argument("--strategies", default=None, metavar="A,B",
                     help="comma-separated strategy names "
                          "(default kr_veloc,fenix_kr_veloc)")
    run.add_argument("--ranks", type=_int_list, default=None,
                     metavar="R1,R2,...",
                     help="scales to sweep (default 8)")
    run.add_argument("--iters", type=int, default=120,
                     help="Heatdis iterations per cell (default 120)")
    run.add_argument("--max-failures", type=int, default=3,
                     help="failure injections per cell (default 3)")
    add_sweep_args(run)
    run.add_argument("--out", default="report-out",
                     help="output directory (default report-out); the "
                          "progress events go to OUT/progress.jsonl "
                          "unless --progress-jsonl names a path")
    run.add_argument("--title", default="Campaign resilience report")
    run.add_argument("--no-exemplars", action="store_true",
                     help="skip the per-strategy instrumented exemplar "
                          "runs (faster; report loses the embedded "
                          "timeline/flame sections)")
    run.add_argument("--determinism-audit", action="store_true",
                     help="run every cell twice from identical seeds and "
                          "align the traces (repro.align); divergent "
                          "cells are flagged on the scorecard")
    run.add_argument("--bench", default="BENCH_simulator.json",
                     help="pytest-benchmark baseline for host-cost "
                          "anomaly flags ('' disables)")

    rend = sub.add_parser("render", help="ledger JSON -> HTML")
    rend.set_defaults(run=_render)
    rend.add_argument("ledger")
    rend.add_argument("--out", default="report.html")
    rend.add_argument("--title", default="Campaign resilience report")

    score = sub.add_parser("scorecard",
                           help="print the text scorecard of a ledger")
    score.set_defaults(run=_scorecard)
    score.add_argument("ledger")
    score.add_argument("--json", default=None,
                       help="also write the scorecard JSON here")

    diff = sub.add_parser("diff",
                          help="gate a scorecard against a baseline")
    diff.set_defaults(run=_diff)
    diff.add_argument("baseline", help="ledger or scorecard JSON")
    diff.add_argument("current", help="ledger or scorecard JSON")
    add_budget_flag(diff, DEFAULT_DIFF_BUDGET,
                    "max relative move in a tracked metric's bad "
                    "direction before failing (default 0.10 = 10%%)")


def _load_ledger(path: str, doc: Optional[dict] = None) -> CampaignLedger:
    """The campaign ledger in ``path`` (``doc``: its JSON, when the
    caller has read it already)."""
    try:
        return CampaignLedger.from_dict(
            load_json(path) if doc is None else doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"cannot load {path}: not a usable ledger: {exc}") from exc


def _load_scorecard(path: str) -> dict:
    """Read a scorecard from a scorecard JSON or a ledger JSON."""
    doc = load_json(path)
    if "strategies" in doc:
        return doc
    if "runs" in doc:
        return build_scorecard(_load_ledger(path, doc))
    raise ConfigError(
        f"cannot load {path}: neither a scorecard nor a campaign ledger")


def _run(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import (
        DEFAULT_SEEDS,
        DEFAULT_STRATEGIES,
        run_campaign_grid,
    )
    from repro.report.exemplars import collect_exemplars

    seeds = args.seeds or list(DEFAULT_SEEDS)
    strategies = (args.strategies.split(",") if args.strategies
                  else list(DEFAULT_STRATEGIES))
    scales = args.ranks or [8]
    os.makedirs(args.out, exist_ok=True)
    jsonl_path = args.progress_jsonl or os.path.join(
        args.out, "progress.jsonl"
    )
    cache, progress = sweep_from_args(args, jsonl_path)

    ledger = run_campaign_grid(
        scales=scales, seeds=seeds, strategies=strategies,
        n_iters=args.iters, max_failures=args.max_failures,
        jobs=args.jobs, cache=cache, progress=progress,
        determinism_audit=args.determinism_audit,
    )
    if progress is not None:
        progress.finish()
        ledger.progress["jsonl"] = jsonl_path
    if not args.no_exemplars:
        ledger.exemplars = collect_exemplars(strategies,
                                             n_ranks=min(scales))

    bench = None
    if args.bench:
        try:
            bench = load_json(args.bench)
        except ConfigError:
            print(f"note: benchmark baseline {args.bench!r} unreadable; "
                  "host anomaly flags skipped", file=sys.stderr)
    scorecard = build_scorecard(ledger)
    if bench is not None:
        scorecard["flags"] = flag_anomalies(ledger, bench=bench)

    ledger_path = os.path.join(args.out, "campaign.json")
    score_path = os.path.join(args.out, "scorecard.json")
    html_path = os.path.join(args.out, "report.html")
    ledger.save(ledger_path)
    with open(score_path, "w", encoding="utf-8") as fh:
        json.dump(scorecard, fh, indent=1, sort_keys=True)
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_html(ledger, scorecard, title=args.title))

    print(format_scorecard(scorecard))
    if cache is not None:
        print(cache.summary())
    print(f"wrote {html_path}, {ledger_path}, {score_path}; "
          f"progress stream at {jsonl_path}")
    return EXIT_OK


def _render(args: argparse.Namespace) -> int:
    ledger = _load_ledger(args.ledger)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_html(ledger, title=args.title))
    print(f"wrote {args.out}")
    return EXIT_OK


def _scorecard(args: argparse.Namespace) -> int:
    ledger = _load_ledger(args.ledger)
    scorecard = build_scorecard(ledger)
    print(format_scorecard(scorecard))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(scorecard, fh, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return EXIT_OK


def _diff(args: argparse.Namespace) -> int:
    base = _load_scorecard(args.baseline)
    cur = _load_scorecard(args.current)
    rows, failing = scorecard_regressions(base, cur, args.budget)
    for line in format_deltas(rows, failing, mode="growth",
                              value_format="{:.4g}"):
        print(line)
    code, verdict = budget_verdict(failing, args.budget,
                                   what="scorecard metric")
    print(verdict, file=sys.stderr if failing else sys.stdout)
    return code


main = partial(cli.main, tool="report")

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
