"""The command BENCHMARK.json names: one run of one workload.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer one.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from benchmarks.e2e import measure  # noqa: E402

#: repetitions per probe that fit a traced run into the driver's time cap
#: (``python -m benchmarks.e2e run --traced`` uses 15)
PROBE_REPS = 3
#: share of ``--seconds`` a traced run spends on the workload itself; the
#: probes take the rest (about 13 s at PROBE_REPS on the reference machine)
TRACED_LOOP_SHARE = 0.2


def main(argv=None) -> int:
    spec = measure.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            result = measure.measure(
                args.workload, args.seed, args.seconds * TRACED_LOOP_SHARE,
                traced=True)
            values = measure.probes(args.seed, PROBE_REPS)["metrics"]
            values["bench.trace_overhead_pct"] = result["trace_overhead_pct"]
            wanted = spec["per_layer"]
        else:
            result = measure.measure(args.workload, args.seed, args.seconds)
            values = result["metrics"]
            wanted = spec["end_to_end"]
    finally:
        measure.cleanup()
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
