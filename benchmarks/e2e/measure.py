"""Parent side of a measurement: start the worker subprocesses of a run,
time their set-up from outside, and reduce their repeats to metrics.

A run of a workload is ``WORKERS`` worker processes one after the other,
each walking the same cycle of inputs for its share of the run.  The
program is deterministic and the machine is a few cores of a shared host:
another tenant, or the memory a process happens to be given, only ever
*adds* time.  So an input's cost is the **fastest of its repeats, over all
the run's workers** (its *floor*), set-up time is the fastest set-up, and
every host-time metric is a statistic over the floors of the cycle's
inputs, not over the raw samples.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from .spans import self_times
from .worker import canonical

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: everything the benchmark writes (caches, JSONL sinks) lands here, inside
#: the checkout, and is removed when the run ends
WORK_DIR = os.path.join(REPO_ROOT, ".e2e_work")

#: worker processes per run: each pays its own set-up (``setup_s`` needs
#: several) and is given its own memory, good or bad, for its lifetime
WORKERS = 3
#: which percentile of the inputs' floors ``op_host_s_hi`` reports
HI_PCT = 90

def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the names, units and bounds of everything measured."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env() -> Dict[str, str]:
    """One thread per numeric library, no strict-mode CI hooks, one fixed
    string-hash seed (or dict layouts, and with them host time, would
    differ from process to process), and the program importable from the
    checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in ("REPRO_STRICT_MONITOR", "REPRO_STRICT_SLO"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_ROOT, os.path.join(REPO_ROOT, "src")])
    return env


def spawn(args: List[str]) -> Dict[str, Any]:
    """Run one worker; returns its result with ``setup_s`` measured here,
    from process start to the worker's READY line."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.worker",
             "--workdir", WORK_DIR, *args],
            cwd=REPO_ROOT, env=worker_env(), stdout=subprocess.PIPE,
            text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            raise
    code = proc.returncode
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError(f"worker {args} failed with exit code {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def floors(parts: List[Dict[str, Any]], *keys: str) -> Dict[str, float]:
    """Per input, the fastest repeat any worker recorded under ``keys``."""
    out: Dict[str, float] = {}
    for part in parts:
        for key in keys:
            for index, repeats in part[key].items():
                out[index] = min([out.get(index, repeats[0]), *repeats])
    return out


def summarise(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce the repeats of a run's workers to one result."""
    first = parts[0]
    host = floors(parts, "host_s", "host_s_traced")
    cost = sorted(host.values())
    repeats = [(index, t) for part in parts
               for key in ("host_s", "host_s_traced")
               for index, ts in part[key].items() for t in ts]
    n = len(repeats)
    # every worker walked the same inputs, so simulated the same things
    same_sim = all(part["first_sim"] == first["first_sim"] for part in parts)
    failed = sum(part["failed"] for part in parts) + (not same_sim)
    attempted = sum(part["attempted"] for part in parts)
    sim_seconds = [sim["sim_s"] for sim in first["first_sim"] if sim]
    setups = [part["setup_s"] for part in parts]
    result: Dict[str, Any] = {
        "workload": first["workload"], "seed": first["seed"],
        "cycle": first["cycle"], "workers": len(parts),
        "n": n, "attempted": attempted, "failed": failed,
        "hi_percentile": f"p{HI_PCT} of {len(cost)} input floors",
        "repeats_per_input": n / len(cost) if cost else 0.0,
        # how far the raw samples sum above their inputs' floors: what the
        # host (and the interpreter's own jitter) added to the run
        "host_noise_pct": ((sum(t for _, t in repeats)
                            / sum(host[i] for i, _ in repeats) - 1.0) * 100.0
                           if cost else 0.0),
        "sim_digest": hashlib.sha256(
            canonical(first["first_sim"]).encode()).hexdigest(),
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": min(setups),
            "op_host_s_p50": statistics.median(cost) if cost else 0.0,
            "op_host_s_hi": percentile(cost, HI_PCT) if cost else 0.0,
            "ops_per_s": len(cost) / sum(cost) if cost else 0.0,
            "cpu_s_per_op": (statistics.mean(floors(parts, "cpu_s").values())
                             if cost else 0.0),
            "peak_rss_mib": max(part["peak_rss_mib"] for part in parts),
            "failed_op_ratio": failed / attempted,
            "sim_s_per_op": (statistics.median(sim_seconds)
                             if sim_seconds else 0.0),
        },
    }
    if "spans" in first:  # a traced run is one worker
        on, off = floors(parts, "host_s_traced"), floors(parts, "host_s")
        paired = [i for i in on if i in off]
        result["trace_overhead_pct"] = (
            (sum(on[i] for i in paired) / sum(off[i] for i in paired) - 1.0)
            * 100.0 if paired else 0.0)
        result["self_time_s"] = self_times(first["spans"])
        result["spans"] = first["spans"]
    if "cache_counts" in first:
        result["cache_counts"] = first["cache_counts"]
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool = False,
            cycle: int = 0, workers: int = WORKERS) -> Dict[str, Any]:
    """One run of a workload: ``workers`` worker processes in turn, each
    timing ops for its share of ``seconds`` (a traced run is one worker:
    span parents index one span list).  ``cycle`` 0 leaves the number of
    distinct inputs to the workload."""
    if traced:
        workers = 1
    args = ["--workload", workload, "--seed", str(seed), "--cycle",
            str(cycle), "--seconds", str(seconds / workers)]
    return summarise([spawn(args + (["--traced"] if traced else []))
                      for _ in range(workers)])


def probes(seed: int, reps: int) -> Dict[str, Any]:
    result = spawn(["--probes", str(reps), "--seed", str(seed)])
    del result["setup_s"]
    return result


def cleanup() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
