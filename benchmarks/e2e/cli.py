"""``python -m benchmarks.e2e run | compare`` -- every workload in one go.

``run`` measures each workload exactly as ``run.py`` does (same worker,
same loop) -- the ones BENCHMARK.json names and ``sweep_cold_warm_j2``,
which it does not -- prints every metric by name with its unit, and writes
a result JSON with provenance.  ``--traced`` adds a traced pass per
workload and the per-layer probes, and writes the spans to
``<out>.trace.json``.
``compare`` holds two result files against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List

import numpy

from . import measure
from .compare import EXIT_BAD_INPUT, compare_files
from .workloads import WORKLOADS

DEFAULT_SEED = 20220906
#: probe repetitions of the traced pass (the driver's runs afford fewer)
PROBE_REPS = 15


def git_commit() -> Any:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=measure.REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def print_metrics(title: str, metrics: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")


def print_self_time(title: str, self_time: Dict[str, float]) -> None:
    total = sum(self_time.values())
    print(f"{title} (self time: span minus what its children cover)")
    for name, secs in sorted(self_time.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<34} {secs:>10.4f} s {secs / total:>7.1%}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = measure.load_spec()
    # failed_op_ratio is 0 on a healthy run, so BENCHMARK.json cannot list it
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_op_ratio"] = "ratio"
    # every workload of the package, the ones BENCHMARK.json gates first
    names = list(WORKLOADS)
    if args.workload:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; known: {names}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
        names = [args.workload]
    seconds = 0.0 if args.quick else float(
        args.seconds if args.seconds is not None else spec["run_seconds"])
    shape = dict(cycle=2, workers=1) if args.quick else {}
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    noisy = load_start > nproc
    if noisy:
        print(f"WARNING: 1-min load average {load_start:.2f} exceeds "
              f"{nproc} CPUs; results are marked noisy", file=sys.stderr)
    out: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "quick": args.quick, "noisy": noisy, "workloads": {},
    }
    spans: List[Dict] = []
    try:
        for name in names:
            result = measure.measure(name, args.seed, seconds, **shape)
            out["workloads"][name] = result
            print_metrics(
                f"{name}: n={result['n']} failed={result['failed']}/"
                f"{result['attempted']} repeats/input="
                f"{result['repeats_per_input']:.1f} host_noise="
                f"{result['host_noise_pct']:.1f}% op_host_s_hi="
                f"{result['hi_percentile']} "
                f"sim_digest={result['sim_digest'][:16]}",
                result["metrics"], units)
        if args.traced:
            traced: Dict[str, Any] = {"workloads": {}}
            for name in names:
                result = measure.measure(name, args.seed, seconds,
                                         traced=True, **shape)
                spans += result.pop("spans")
                untraced_p50 = out["workloads"][name]["metrics"][
                    "op_host_s_p50"]
                traced["workloads"][name] = {
                    "bench.trace_overhead_pct": result["trace_overhead_pct"],
                    "self_time_s": result["self_time_s"],
                    "n": result["n"],
                }
                print_self_time(f"{name} traced", result["self_time_s"])
                print(f"  bench.trace_overhead_pct "
                      f"{result['trace_overhead_pct']:.3f} % (spans on vs "
                      f"off within the traced pass; untraced pass p50 "
                      f"{untraced_p50:.6g} s)")
            probed = measure.probes(args.seed,
                                    2 if args.quick else PROBE_REPS)
            spans += probed.pop("spans")
            traced["probes"] = probed
            out["traced"] = traced
            print_metrics(f"per-layer probes ({probed['reps']} repetitions)",
                          probed["metrics"], units)
            print_self_time("probes", probed["self_time_s"])
    finally:
        measure.cleanup()
    out["provenance"] = {
        "nproc": nproc, "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(), "machine": platform.platform(),
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {args.out}")
    if args.traced:
        trace_path = os.path.splitext(args.out)[0] + ".trace.json"
        with open(trace_path, "w") as fh:
            json.dump(spans, fh)
        print(f"wrote {trace_path} ({len(spans)} spans)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure the workloads")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workload", help="only this workload")
    run.add_argument("--seconds", type=float,
                     help="timed seconds per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--traced", action="store_true",
                     help="add the traced pass and the per-layer probes")
    run.add_argument("--quick", action="store_true",
                     help="two ops per workload: a smoke run, not a result")
    run.add_argument("--out", default="e2e_result.json")
    run.set_defaults(fn=cmd_run)
    cmp_ = sub.add_parser("compare", help="hold two results to the bounds")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=lambda args: compare_files(
        args.a, args.b, measure.load_spec()))
    args = ap.parse_args(argv)
    return args.fn(args)
