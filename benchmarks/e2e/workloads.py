"""The seven workloads: seeded inputs, the timed call, and its oracle.

A workload draws ``cycle`` distinct operation inputs from the seed; the
timed loop walks that cycle over and over.  So every input is timed
several times (its cost is the fastest of them, see ``worker.py``), the
simulated statistics of the first cycle (the ``sim_digest``) do not depend
on how many operations fit into the run, and every repeat of an input must
reproduce them.

``run`` is the only timed method.  ``check`` returns ``(ok, sim)`` where
``sim`` holds every simulated statistic of the operation, led by
``sim_s``, the simulated seconds it modelled.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib
from typing import Any, Dict, List, Tuple

import numpy as np

from . import adapter as A
from .spans import Tracer

#: share of the view's rows each ``ckpt_write_16mib`` op rewrites
DIRTY_FRACTION = 0.25
WARM_PASSES = 10

#: exponential-failure plan seeds the sweep draws from: 1..160 without the
#: ten under which the campaign job ends in a DeadlockError at the commit
#: that added this benchmark (every rank of a relaunch blocked on a PFS
#: server lock a killed process still holds -- ROADMAP item 4's territory).
#: The benchmark measures runs that complete; drop the exclusions in a
#: benchmark-only change once those seeds run clean.
SWEEP_PLAN_SEEDS = sorted(set(range(1, 161))
                          - {6, 12, 28, 32, 46, 50, 59, 104, 110, 128})


# -- oracles (pure, so the smoke test can feed them wrong outputs) ----------


def arrays_match(got: np.ndarray, expected: np.ndarray) -> bool:
    """Bitwise equality: grids, particle state and restored payloads."""
    return got.shape == expected.shape and bool(np.array_equal(got, expected))


def attempts_ok(strategy: str, attempts: int, failures: int) -> bool:
    """Fenix repairs in place; fail-restart relaunches after a failure
    (once per failure, unless two ranks died before one abort)."""
    if A.STRATEGIES[strategy].fenix:
        return attempts == 1
    return min(failures, 1) + 1 <= attempts <= failures + 1


def warm_pass_ok(warm: List[Any], cold_json: str) -> bool:
    """A rerun is served entirely from the cache, byte-identically."""
    return all(r.cached for r in warm) and A.results_json(warm) == cold_json


def job_sim(report: Any) -> Dict[str, Any]:
    return {"sim_s": report.wall_time, **A.sim_stats(report)}


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    why = ""
    #: distinct inputs drawn per seed: few enough that each is repeated
    #: about six times or more in a run of BENCHMARK.json's ``run_seconds``
    cycle = 10

    def __init__(self, seed: int, cycle: int, workdir: str) -> None:
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(self.name.encode())])
        self.workdir = workdir
        self.inputs = [self.draw(i) for i in range(cycle)]

    def draw(self, i: int) -> Dict[str, Any]:
        """Inputs of the cycle's ``i``-th operation."""
        return {}

    def prepare(self, inp: Dict[str, Any]) -> None:
        """Untimed per-op preparation (the ``adapter.build_inputs`` span)."""

    def run(self, inp: Dict[str, Any], tracer: Tracer) -> Any:
        raise NotImplementedError

    def check(self, inp: Dict[str, Any], out: Any
              ) -> Tuple[bool, Dict[str, Any]]:
        raise NotImplementedError

    def _platform(self) -> Dict[str, Any]:
        return {"cluster_seed": int(self.rng.integers(1, 2**31)),
                "jitter": float(self.rng.uniform(0.04, 0.06))}

    def _kill(self, n_ranks: int) -> Dict[str, Any]:
        return {"victim": int(self.rng.integers(1, n_ranks)),
                "gap": int(self.rng.choice(A.KILL_GAPS))}


class HeatdisClean64r(Workload):
    name = "heatdis_clean_64r"
    why = ("paper-scale failure-free job: ~8k messages plus async flushes, "
           "so the sim engine and per-message MPI code do the work; "
           "recovery, observers and the cache do none")
    N_RANKS = 64
    #: the longest op (0.6 s), and its inputs differ least: only the
    #: cluster seed and the jitter vary
    cycle = 5

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.expected = A.heatdis_expected(self.N_RANKS)

    def draw(self, i):
        return self._platform()

    def run(self, inp, tracer):
        return A.heatdis_job("fenix_kr_veloc", self.N_RANKS, pfs_servers=4,
                             **inp)

    def check(self, inp, out):
        report, _plan = out
        ok = (arrays_match(A.heatdis_grid(report), self.expected)
              and report.attempts == 1 and report.failures == 0)
        return ok, job_sim(report)


class HeatdisKill16r(Workload):
    name = "heatdis_kill_16r"
    why = ("one seeded kill under five strategies: ULFM revoke/shrink/agree, "
           "Fenix repair, VeloC/IMR recover and the relaunch loop run beside "
           "checkpointing; bare twin of observed_kill_8r")
    N_RANKS = 16
    STRATEGIES = ["veloc", "kr_veloc", "fenix_veloc", "fenix_kr_veloc",
                  "fenix_kr_imr"]

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.expected = A.heatdis_expected(self.N_RANKS)

    def draw(self, i):
        return {"strategy": self.STRATEGIES[i % len(self.STRATEGIES)],
                **self._platform(), **self._kill(self.N_RANKS)}

    def run(self, inp, tracer, **observers):
        return A.heatdis_job(
            inp["strategy"], self.N_RANKS, pfs_servers=1,
            cluster_seed=inp["cluster_seed"], jitter=inp["jitter"],
            kill=A.kill_plan(inp["victim"], inp["gap"]), **observers)

    def check(self, inp, out):
        report, plan = out
        ok = (arrays_match(A.heatdis_grid(report), self.expected)
              and A.kills_fired(plan) and report.failures == 1
              and attempts_ok(inp["strategy"], report.attempts, 1))
        return ok, job_sim(report)


class ObservedKill8r(HeatdisKill16r):
    name = "observed_kill_8r"
    why = ("the seeded kill job with telemetry, strict monitor, profile "
           "ledger, SLO rules, JSONL sink and determinism audit all on: "
           "observer, replay and alignment cost shows here and nowhere else")
    N_RANKS = 8
    STRATEGIES = ["fenix_kr_veloc"]

    def run(self, inp, tracer):
        sink = os.path.join(self.workdir, "observed.trace.jsonl")
        obs = A.observers(telemetry=True, monitor=True, profile=True,
                          live=True, sink=sink, audit=True)
        try:
            return super().run(inp, tracer, **obs)
        finally:
            obs["trace_sink"].close()
            self.sink_records = obs["trace_sink"].records_written

    def check(self, inp, out):
        ok, sim = super().check(inp, out)
        report = out[0]
        ok = (ok and not report.violations and not report.divergences
              and report.profile is not None and report.telemetry is not None
              and self.sink_records > 0)
        return ok, sim


class MiniMDKill8r(Workload):
    name = "minimd_kill_8r"
    why = ("the paper's second app: 61 view objects, 39 checkpointed, so the "
           "Kokkos registry and KR discovery/classification carry weight, "
           "with neighbour exchange instead of halo plus allreduce")
    N_RANKS = 8
    STRATEGIES = ["kr_veloc", "fenix_kr_veloc"]

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        clean, _ = A.minimd_job("fenix_kr_veloc", self.N_RANKS,
                                cluster_seed=1)
        self.expected = A.minimd_state(clean)

    def draw(self, i):
        return {"strategy": self.STRATEGIES[i % 2], **self._platform(),
                **self._kill(self.N_RANKS)}

    def run(self, inp, tracer):
        return A.minimd_job(
            inp["strategy"], self.N_RANKS, cluster_seed=inp["cluster_seed"],
            jitter=inp["jitter"], kill=A.kill_plan(inp["victim"], inp["gap"]))

    def check(self, inp, out):
        report, plan = out
        ok = (arrays_match(A.minimd_state(report), self.expected)
              and A.kills_fired(plan) and report.failures == 1
              and attempts_ok(inp["strategy"], report.attempts, 1))
        return ok, job_sim(report)


class CkptWrite16MiB(Workload):
    name = "ckpt_write_16mib"
    why = ("the only place real bytes move: tracked write of 25% of a real "
           "16 MiB view then a default VeloC checkpoint (COW + dedup + "
           "flush); chunk tracking, blake2b and copies dominate")
    MIB = 16

    def __init__(self, seed: int, cycle: int, workdir: str,
                 **veloc_config: Any) -> None:
        self.rig = A.CheckpointRig(self.MIB, **veloc_config)
        self.dirty_rows = int(self.rig.rows * DIRTY_FRACTION)
        self.expected = self.rig.view.copy_data()
        self.version = 0
        super().__init__(seed, cycle, workdir)
        self.block = self.rng.random((self.dirty_rows, self.rig.COLS))

    def draw(self, i):
        return {"offset": int(self.rng.integers(
            0, self.rig.rows - self.dirty_rows))}

    def prepare(self, inp):
        # half the rows written carry content no version held before, the
        # other half the bytes already there: every chunk touched is dirty,
        # about half of them are dedup hits
        lo, half = inp["offset"], self.dirty_rows // 2
        self.version += 1
        data = self.block + float(self.version)
        data[half:] = self.expected[lo + half:lo + self.dirty_rows]
        inp["data"] = data

    def run(self, inp, tracer):
        rig, lo, version = self.rig, inp["offset"], self.version
        before = dict(rig.client.stats)

        def body():
            with tracer.span("kokkos.tracked_write"):
                rig.view[lo:lo + self.dirty_rows] = inp["data"]
            with tracer.span("veloc.checkpoint"):
                yield from rig.client.checkpoint(version)

        return rig.run(body), version, before

    def check(self, inp, out):
        sim_s, version, before = out
        lo, stats = inp["offset"], self.rig.client.stats
        self.expected[lo:lo + self.dirty_rows] = inp.pop("data")
        # or memory would grow with the op count, and peak_rss_mib with it
        self.rig.forget_persisted(before=version - 1)
        ok = (arrays_match(self.rig.stored(version), self.expected)
              and stats["checkpoints"] == before["checkpoints"] + 1)
        return ok, {"sim_s": sim_s, "dirty_bytes":
                    stats["dirty_bytes"] - before["dirty_bytes"]}


class CkptRestore64MiB(Workload):
    name = "ckpt_restore_64mib"
    why = ("reads beside writes: scrub a real 64 MiB view and recover the "
           "latest of 4 COW versions; a snapshot layout that makes "
           "checkpoints cheaper can make reassembly dearer")
    MIB = 64
    VERSIONS = 4

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rig = self.rig = A.CheckpointRig(self.MIB)
        dirty_rows = int(rig.rows * DIRTY_FRACTION)
        offsets = self.rng.integers(0, rig.rows - dirty_rows,
                                    size=self.VERSIONS)

        def body():
            for version, lo in enumerate(offsets):
                rig.view[int(lo):int(lo) + dirty_rows] = self.rng.random(
                    (dirty_rows, rig.COLS))
                yield from rig.client.checkpoint(version)

        rig.run(body)
        self.latest = self.VERSIONS - 1
        self.expected = rig.view.copy_data()

    def prepare(self, inp):
        self.rig.view.fill(-1.0)

    def run(self, inp, tracer):
        rig = self.rig

        def body():
            with tracer.span("veloc.recover"):
                yield from rig.client.recover(self.latest)

        return rig.run(body)

    def check(self, inp, out):
        return (arrays_match(self.rig.view.copy_data(), self.expected),
                {"sim_s": out})


class SweepColdWarmJ2(Workload):
    name = "sweep_cold_warm_j2"
    why = ("what people run: a 4-cell exponential-failure campaign with "
           "jobs=2 into a fresh cache, then 10 warm reruns; pool start-up, "
           "pickling, cache_key/code_fingerprint and JSON put/get land here")
    cycle = 5

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.mtbf = A.sweep_mtbf()

    def draw(self, i):
        return {"plan_seeds": [int(s) for s in self.rng.choice(
            SWEEP_PLAN_SEEDS, size=2, replace=False)]}

    def prepare(self, inp):
        inp["cells"] = A.sweep_cells(inp["plan_seeds"], self.mtbf)
        inp["cache_dir"] = tempfile.mkdtemp(prefix="cache.", dir=self.workdir)

    def run(self, inp, tracer):
        cells, cache = inp["cells"], A.RunCache(inp["cache_dir"])
        with tracer.span("parallel.run_cells.cold"):
            cold = A.run_cells(cells, jobs=2, cache=cache)
        with tracer.span("parallel.run_cells.warm"):
            warm = [A.run_cells(cells, jobs=2, cache=cache)
                    for _ in range(WARM_PASSES)]
        return cold, warm, cache

    def check(self, inp, out):
        cold, warm, cache = out
        shutil.rmtree(inp.pop("cache_dir"), ignore_errors=True)
        del inp["cells"]
        cold_json = A.results_json(cold)
        ok = (not any(r.cached for r in cold)
              and all(warm_pass_ok(w, cold_json) for w in warm)
              and all(attempts_ok(r.spec.strategy, r.report.attempts,
                                  r.failures) for r in cold))
        self.cache_counts = {"hits": cache.hits, "misses": cache.misses,
                             "executed": sum(not r.cached for r in cold)}
        sims = [job_sim(r.report) for r in cold]
        return ok, {"sim_s": sum(s["sim_s"] for s in sims), "cells": sims}


WORKLOADS = {w.name: w for w in (
    HeatdisClean64r, HeatdisKill16r, MiniMDKill8r, ObservedKill8r,
    CkptWrite16MiB, CkptRestore64MiB, SweepColdWarmJ2)}
