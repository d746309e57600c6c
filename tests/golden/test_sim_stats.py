"""Golden simulated statistics: bit-identity as a tier-1 gate.

Host-side optimizations of the engine / MPI / data path must leave every
simulated number untouched.  The Heatdis files beside this module were
recorded on the commit *before* the zero-delay ready queue and the
callback-chained message delivery landed, the MiniMD one on the commit
that stopped handing the server stale chunk digests (a model fix: x/v/f
are flushed every version); each job below must keep reproducing its
file byte for byte.  A failure names the statistics that moved.

Regenerate (only for a change that is *meant* to move simulated time)::

    PYTHONPATH=src python tests/golden/test_sim_stats.py
"""

import json
import os

import pytest

from repro.apps import HeatdisConfig
from repro.experiments import fig5_heatdis, fig6_minimd
from repro.experiments.common import paper_env
from repro.harness import STRATEGIES, run_heatdis_job, run_minimd_job
from repro.harness.report import reports_to_json
from repro.sim import IterationFailure

HERE = os.path.dirname(os.path.abspath(__file__))
N_RANKS = 8
INTERVAL = fig5_heatdis.CKPT_INTERVAL


def _kill():
    # the paper's rule: rank 2 dies 95% of the way from checkpoint 4 to 5
    return IterationFailure.between_checkpoints(2, INTERVAL, 4)


def _heatdis(strategy, plan=None):
    # partial rollback needs the convergence variant: an unreachable
    # threshold keeps all 60 iterations and adds an allreduce to each
    partial = STRATEGIES[strategy].scope == "recovered_only"
    cfg = HeatdisConfig(
        local_rows=8, cols=16, modeled_bytes_per_rank=1e9,
        n_iters=fig5_heatdis.N_ITERS, compute_jitter=0.05,
        work_multiplier=fig5_heatdis.WORK_MULTIPLIER,
        convergence_threshold=1e-12 if partial else None,
    )
    env = paper_env(N_RANKS + 1, seed=11, pfs_servers=1)
    return run_heatdis_job(env, strategy, N_RANKS, cfg, INTERVAL, plan=plan)


def _minimd_kill():
    plan = IterationFailure.between_checkpoints(
        2, fig6_minimd.CKPT_INTERVAL, fig6_minimd.FAIL_AFTER_CKPT)
    return run_minimd_job(
        fig6_minimd._md_env(N_RANKS, pfs_servers=1), "fenix_kr_veloc",
        N_RANKS, fig6_minimd._md_cfg(N_RANKS, 0.05),
        fig6_minimd.CKPT_INTERVAL, plan=plan)


JOBS = {"heatdis_clean_fenix_kr_veloc": lambda: _heatdis("fenix_kr_veloc"),
        "minimd_kill_fenix_kr_veloc": _minimd_kill}
for _name in STRATEGIES:
    JOBS[f"heatdis_kill_{_name}"] = (
        lambda s=_name: _heatdis(s, _kill()))


def _render(report):
    return reports_to_json([report]) + "\n"


def _flatten(doc, prefix=""):
    """``{"buckets": {"app_mpi": 1.0}}`` -> ``{"buckets.app_mpi": 1.0}``."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    flat = {}
    for key, value in items:
        flat.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def moved_statistics(expected: str, got: str):
    """One line per statistic that differs between two rendered reports:
    what a reviewer of an intentional model change needs from the CI log."""
    old, new = (_flatten(json.loads(text)[0]) for text in (expected, got))
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
        if a == b:
            continue
        rel = ""
        if isinstance(a, float) and isinstance(b, float) and a:
            rel = f"  ({(b - a) / a:+.3%})"
        lines.append(f"{key}: {a!r} -> {b!r}{rel}")
    return lines


@pytest.mark.parametrize("name", sorted(JOBS))
def test_simulated_statistics_are_byte_identical(name):
    with open(os.path.join(HERE, f"{name}.json")) as fh:
        expected = fh.read()
    report = JOBS[name]()
    got = _render(report)
    if got != expected:
        lines = moved_statistics(expected, got) or ["(formatting only)"]
        # not in the golden file, but where a data-path change shows first
        lines.append(f"data_path of this run: {report.data_path}")
        pytest.fail(
            f"{name}: simulated statistics moved\n  " + "\n  ".join(lines)
            + "\nregenerate only for a change meant to move simulated "
            "time: PYTHONPATH=src python tests/golden/test_sim_stats.py",
            pytrace=False,
        )


def test_failure_names_the_statistics_that_moved():
    with open(os.path.join(HERE, "heatdis_kill_veloc.json")) as fh:
        expected = fh.read()
    doc = json.loads(expected)
    doc[0]["wall_time"] *= 1.01
    doc[0]["buckets"]["app_mpi"] += 0.5
    lines = moved_statistics(expected, json.dumps(doc))
    assert [line.split(":")[0] for line in lines] == [
        "buckets.app_mpi", "wall_time"]
    assert "+1.000%" in lines[1]


if __name__ == "__main__":
    for job in sorted(JOBS):
        with open(os.path.join(HERE, f"{job}.json"), "w") as out:
            out.write(_render(JOBS[job]()))
        print("wrote", job)
