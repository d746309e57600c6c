"""The workload subprocess: set-up, one warm-up op, the timed closed loop.

Started by :mod:`benchmarks.e2e.measure` with the thread-count, hash-seed
and strict environment variables already pinned.  Prints ``READY`` when
set-up is done (the parent timestamps that line: set-up time is measured
from outside, interpreter start included) and one JSON line at the end:
the host and CPU seconds of every repeat of every input, unreduced.
:func:`benchmarks.e2e.measure.summarise` turns the repeats of a run's
workers into metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List

from .spans import Tracer


def cpu_seconds() -> float:
    """User+system CPU of this process and of the children it has reaped
    (pool workers are reaped when their pool shuts down)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def same_sim(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Did two runs of one input simulate the same thing?  Everything must
    be equal, except that ``sim_s`` may differ in its last bits: the
    ``ckpt_*`` rigs keep one simulated clock running, and a difference of
    two clock readings rounds differently as the clock grows."""
    return (math.isclose(a["sim_s"], b["sim_s"], rel_tol=1e-9)
            and canonical({**a, "sim_s": 0}) == canonical({**b, "sim_s": 0}))


def run_workload(name: str, seed: int, seconds: float, cycle: int,
                 traced: bool, workdir: str) -> Dict[str, Any]:
    from .workloads import WORKLOADS

    tracer = Tracer()
    cycle = cycle or WORKLOADS[name].cycle
    wl = WORKLOADS[name](seed, cycle, workdir)
    #: per input index: the simulated statistics of its first timed run
    first_sim: Dict[int, Dict[str, Any]] = {}

    def one_op(index: int, trace_it: bool):
        """Returns (host_s, cpu_s, ok); ok is False if the op raised,
        failed its oracle or broke the simulated statistics."""
        inp = wl.inputs[index]
        tracer.enabled = trace_it
        try:
            with tracer.span("op"):
                with tracer.span("adapter.build_inputs"):
                    wl.prepare(inp)
                c0, t0 = cpu_seconds(), time.perf_counter()
                with tracer.span("adapter.run"):
                    out = wl.run(inp, tracer)
                t1, c1 = time.perf_counter(), cpu_seconds()
                with tracer.span("oracle.check"):
                    ok, sim = wl.check(inp, out)
                    ok = ok and same_sim(first_sim.setdefault(index, sim), sim)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            return None, None, False
        return t1 - t0, c1 - c0, ok

    # the warm-up op is attempted and checked, never timed; what it
    # simulated (a first, full checkpoint, say) is not the steady state
    failed = 0 if one_op(0, False)[2] else 1
    first_sim.clear()
    print("READY", flush=True)

    #: per arm (spans off / on) and input index: host seconds of each repeat
    host: Dict[bool, Dict[int, List[float]]] = {False: {}, True: {}}
    cpu: Dict[int, List[float]] = {}
    done = 0
    deadline = time.perf_counter() + seconds
    # traced runs visit every input twice, spans on then off, so the two
    # arms of bench.trace_overhead_pct see the same mix of work; they owe
    # no digest, so two such pairs are enough when time is short
    per_input = 2 if traced else 1
    min_ops = 4 if traced else cycle
    while done < min_ops or time.perf_counter() < deadline:
        trace_it = traced and done % 2 == 0
        index = (done // per_input) % cycle
        tracer.op = f"{name}/{done}"
        dt, cpu_s, ok = one_op(index, trace_it)
        done += 1
        if not ok:
            failed += 1
        if dt is not None:
            host[trace_it].setdefault(index, []).append(dt)
            cpu.setdefault(index, []).append(cpu_s)

    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "cycle": cycle,
        "attempted": done + 1, "failed": failed,
        "host_s": host[False], "host_s_traced": host[True], "cpu_s": cpu,
        "first_sim": [first_sim.get(i) for i in range(cycle)],
        "peak_rss_mib": max(usage) / 1024.0,
    }
    if traced:
        result["spans"] = tracer.spans
    cache_counts = getattr(wl, "cache_counts", None)
    if cache_counts:
        result["cache_counts"] = cache_counts
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    ap.add_argument("--workload")
    ap.add_argument("--probes", type=int, default=0, metavar="REPS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--cycle", type=int)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="w.", dir=args.workdir)
    try:
        if args.probes:
            from .probes import run_probes

            print("READY", flush=True)
            result = run_probes(args.seed, args.probes, workdir)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.cycle, args.traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
