"""Smoke test of the end-to-end benchmark.  Run explicitly (~1 min):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It is not under tier-1's ``testpaths``.  A ``--quick`` pass is two ops per
workload: it proves the plumbing and the oracles, it measures nothing.
"""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.e2e import measure
from benchmarks.e2e import workloads as W
from benchmarks.e2e.compare import EXIT_BAD_INPUT, compare_results
from benchmarks.e2e.spans import Tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick_pass(tmp_path, tag):
    out = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick",
         "--out", str(out)],
        cwd=measure.REPO_ROOT, env=measure.worker_env(), check=True)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return quick_pass(tmp, "a"), quick_pass(tmp, "b")


@pytest.fixture(scope="module")
def spec():
    return measure.load_spec()


def test_quick_pass_reports_everything(passes, spec):
    result = passes[0]
    assert result["quick"] is True
    # BENCHMARK.json gates every workload but the two this machine cannot
    # time steadily: the two-process sweep and the memory-bound restore
    assert set(result["workloads"]) == set(W.WORKLOADS) == {
        w["name"] for w in spec["workloads"]} | {
        "sweep_cold_warm_j2", "ckpt_restore_64mib"}
    for name, wl in result["workloads"].items():
        assert NAME.fullmatch(name)
        # BENCHMARK.json bounds every end-to-end metric that is never 0
        assert set(wl["metrics"]) == {
            m["name"] for m in spec["end_to_end"]} | {"failed_op_ratio"}
        assert all(NAME.fullmatch(m) for m in wl["metrics"])
        assert wl["metrics"]["failed_op_ratio"] == 0, name
        assert wl["n"] == 2


def test_sim_digest_repeats(passes):
    a, b = passes
    for name in W.WORKLOADS:
        assert (a["workloads"][name]["sim_digest"]
                == b["workloads"][name]["sim_digest"]), name
        assert (a["workloads"][name]["metrics"]["sim_s_per_op"]
                == b["workloads"][name]["metrics"]["sim_s_per_op"]), name


def test_compare_refuses_quick_results(passes, spec):
    assert compare_results(*passes, spec) == EXIT_BAD_INPUT


# -- the oracles must be able to say no --------------------------------------


def failed_ops(wl, inp, out):
    ok, _sim = wl.check(inp, out)
    return 0 if ok else 1


def test_flipped_grid_cell_is_a_failed_op(tmp_path):
    wl = W.ObservedKill8r(1, 1, str(tmp_path))  # the cheapest Heatdis job
    inp = wl.inputs[0]
    report, plan = wl.run(inp, Tracer())
    assert failed_ops(wl, inp, (report, plan)) == 0
    report.results[3]["grid"][2, 5] += 1.0
    assert failed_ops(wl, inp, (report, plan)) == 1


def test_wrong_restored_chunk_is_a_failed_op(tmp_path):
    wl = W.CkptRestore64MiB(1, 1, str(tmp_path))
    wl.prepare({})
    out = wl.run({}, Tracer())
    assert failed_ops(wl, {}, out) == 0
    chunk_rows = 64 * 1024 // (8 * wl.rig.COLS)
    wl.rig.view[5 * chunk_rows:6 * chunk_rows] = np.pi
    assert failed_ops(wl, {}, out) == 1


def test_uncached_warm_cell_is_a_failed_op(tmp_path):
    wl = W.SweepColdWarmJ2(1, 1, str(tmp_path))
    inp = wl.inputs[0]
    wl.prepare(inp)
    cold, warm, cache = wl.run(inp, Tracer())
    warm[-1][2].cached = False
    assert failed_ops(wl, inp, (cold, warm, cache)) == 1
    wl.prepare(inp)
    assert failed_ops(wl, inp, wl.run(inp, Tracer())) == 0
