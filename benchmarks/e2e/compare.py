"""Hold two result files against the bounds BENCHMARK.json fixes."""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

EXIT_OK, EXIT_REGRESSION, EXIT_BAD_INPUT = 0, 1, 2


def verdict(a: float, b: float, better: str, bound: float,
            same_sim: bool) -> str:
    """``b`` against ``a``: worse by more than ``bound`` (a share of ``a``;
    absolute when ``a`` is 0) is a regression.  Inside the bound the pair
    is still unresolved when the two runs did not simulate the same thing."""
    worse = (b - a) if better == "lower" else (a - b)
    if worse > bound * abs(a):
        return "regressed"
    return "ok" if same_sim else "unresolved"


def compare_results(a: Dict[str, Any], b: Dict[str, Any],
                    spec: Dict[str, Any]) -> int:
    if a.get("quick") or b.get("quick"):
        print("refusing to compare --quick results", file=sys.stderr)
        return EXIT_BAD_INPUT
    if a.get("seed") != b.get("seed"):
        print(f"refusing to compare different seeds "
              f"({a.get('seed')} vs {b.get('seed')})", file=sys.stderr)
        return EXIT_BAD_INPUT
    # failed_op_ratio is 0 on a healthy run, so it cannot be a BENCHMARK.json
    # metric (the driver reads ``failed`` instead); here it may not rise
    metrics = spec["end_to_end"] + [
        {"name": "failed_op_ratio", "better": "lower", "bound": 0.0}]
    worst = EXIT_OK
    print(f"{'workload':<20} {'metric':<16} {'A':>14} {'B':>14} "
          f"{'delta':>9} {'bound':>7}  verdict")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        same_sim = wa["sim_digest"] == wb["sim_digest"]
        for m in metrics:
            va, vb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            v = verdict(va, vb, m["better"], m["bound"], same_sim)
            if v != "ok":
                worst = EXIT_REGRESSION
            delta = (vb - va) / abs(va) if va else float(vb != va)
            print(f"{name:<20} {m['name']:<16} {va:>14.6g} {vb:>14.6g} "
                  f"{delta:>+9.2%} {m['bound']:>7.1%}  {v}")
        print(f"{name:<20} sim_digest {'equal' if same_sim else 'DIFFERENT'}"
              f" (n={wa['n']} vs {wb['n']})")
    return worst


def compare_files(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    try:
        with open(path_a) as fa, open(path_b) as fb:
            a, b = json.load(fa), json.load(fb)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read results: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return compare_results(a, b, spec)
