"""Per-layer probes: short drivers that call one layer's public API at the
size the matching workload uses, timed from outside.

Every probe repeats ``reps`` times and reports the median.  Each runs
under a root span ``probe.<first metric it yields>``.  README.md says
which end-to-end metric, on which workload, each value should move.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List

import numpy as np

from . import adapter as A
from .spans import Tracer, self_times
from .workloads import CkptRestore64MiB, CkptWrite16MiB, SweepColdWarmJ2

GIB = float(1 << 30)
MIB = float(1 << 20)

class Probe:
    """What a probe function gets: the repetition count, a seeded
    generator, a scratch directory, and ``median(fn)``."""

    def __init__(self, seed: int, reps: int, workdir: str) -> None:
        self.reps = reps
        self.rng = np.random.default_rng([seed, 0x9e0be5])
        self.workdir = workdir

    def median(self, fn: Callable[[], Any]) -> float:
        """Median over ``reps`` calls of the seconds ``fn`` says it took
        (a float it returns), else of the call's own wall time."""
        samples = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            own = fn()
            samples.append(own if isinstance(own, float)
                           else time.perf_counter() - t0)
        return statistics.median(samples)


def platform(n_nodes: int, pfs_servers: int = 1) -> Any:
    return A.Cluster(A.paper_env(n_nodes, pfs_servers=pfs_servers)
                     .cluster_spec)


def run_ranks(n_ranks: int, body: Callable[[Any], Any],
              plan: Any = None) -> Any:
    """Every rank runs ``body(handle)`` on a fresh world; returns it."""
    cluster = platform(n_ranks)
    world = A.World(cluster, n_ranks)
    for r in range(n_ranks):
        world.spawn(r, body(world.comm_world_handle(r)), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    return world


# -- repro.sim -------------------------------------------------------------


def sim_engine(p: Probe) -> Dict[str, float]:
    total = 50_000

    def timeouts(n_procs: int) -> float:
        def rep():
            eng = A.Engine()

            def ticker(delay):
                for _ in range(total // n_procs):
                    yield eng.timeout(delay)

            for i in range(n_procs):
                eng.process(ticker(1e-3 * (1.0 + i / n_procs)))
            eng.run()

        return p.median(rep) / total * 1e6

    return {"sim.engine_timeout_us": timeouts(1),
            "sim.engine_timeout_64p_us": timeouts(64)}


def sim_pfs(p: Probe) -> Dict[str, float]:
    def rep():
        cluster = platform(1, pfs_servers=4)
        cluster.engine.process(
            cluster.pfs.write("obj", None, GIB, cluster.node(0)))
        cluster.engine.run()

    return {"sim.pfs_write_ms_per_gib": p.median(rep) * 1e3}


def sim_trace(p: Probe) -> Dict[str, float]:
    n = 20_000

    def rep():
        trace = A.Trace(enabled=True)
        trace.subscribe(lambda rec: None)
        for i in range(n):
            trace.emit(float(i), "probe", "tick", i=i)

    return {"sim.trace_emit_us": p.median(rep) / n * 1e6}


# -- repro.mpi -------------------------------------------------------------


def mpi_p2p(p: Probe) -> Dict[str, float]:
    trips = 1_000

    def body(h):
        for i in range(trips):
            if h.rank == 0:
                yield from h.send(i, dest=1)
                yield from h.recv(source=1)
            else:
                got = yield from h.recv(source=0)
                yield from h.send(got, dest=0)

    return {"mpi.p2p_us": p.median(lambda: run_ranks(2, body))
            / (2 * trips) * 1e6}


def mpi_collectives(p: Probe) -> Dict[str, float]:
    n, rounds = 64, 10
    messages = []

    def halo(h):
        for i in range(rounds):
            yield from h.sendrecv(i, dest=(h.rank + 1) % n,
                                  source=(h.rank - 1) % n)

    def allreduce(h):
        for _ in range(rounds):
            yield from h.allreduce(1.0, op=A.SUM)

    def halo_rep():
        world = run_ranks(n, halo)
        messages.append(world.network.messages_sent)

    return {
        "mpi.halo_sendrecv_us": p.median(halo_rep) / (n * rounds) * 1e6,
        "mpi.allreduce_us": p.median(
            lambda: run_ranks(n, allreduce)) / (n * rounds) * 1e6,
        "mpi.messages": float(messages[-1]),
    }


def mpi_ulfm(p: Probe) -> Dict[str, float]:
    n, victim = 16, 5

    def body(h):
        if h.rank == victim:
            yield from h.ctx.sleep(100.0)
            return
        yield from h.ctx.sleep(2.0)
        if h.rank == 0:
            h.revoke()
        shrunk = yield from h.shrink()
        yield from shrunk.agree(True)

    def rep():
        cluster = platform(n)
        world = A.World(cluster, n)
        plan = A.TimedFailure([(victim, 1.0)])
        for r in range(n):
            world.spawn(r, body(world.comm_world_handle(r)),
                        failure_plan=plan)
        cluster.engine.run(until=1.5)  # the kill has landed, repair not begun
        t0 = time.perf_counter()
        cluster.engine.run()
        return time.perf_counter() - t0

    return {"mpi.ulfm_repair_ms": p.median(rep) * 1e3}


# -- repro.fenix -------------------------------------------------------------


def fenix_recover(p: Probe) -> Dict[str, float]:
    n, victim = 17, 5
    repairs = []

    def rep():
        cluster = platform(n)
        world = A.World(cluster, n)
        system = A.FenixSystem(world, n_spares=1)
        plan = A.IterationFailure([(victim, 3)])
        marks: Dict[str, float] = {}

        def main(role, h):
            if role.name != "INITIAL":
                marks["reentered"] = time.perf_counter()
            for i in range(6):
                if (h.ctx.rank, i) in plan.pending:
                    marks["killed"] = time.perf_counter()
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=A.SUM)

        for r in range(n):
            world.spawn(r, system.run(world.context(r), main),
                        failure_plan=plan)
        cluster.engine.run()
        world.raise_job_errors()
        repairs.append(system.generation)
        return marks["reentered"] - marks["killed"]

    return {"fenix.recover_cycle_ms": p.median(rep) * 1e3,
            "fenix.repairs": float(repairs[-1])}


def fenix_imr(p: Probe) -> Dict[str, float]:
    rows = int(16 * MIB) // (8 * 256)
    store_s: List[float] = []
    restore_s: List[float] = []

    def rep():
        cluster = platform(2)
        world = A.World(cluster, 2)
        imr = A.IMRStore(world)

        def body(h):
            view = A.KokkosRuntime().view("state", shape=(rows, 256))
            view.fill(float(h.rank + 1))
            t0 = time.perf_counter()
            yield from imr.store(h.ctx, h, 0, view, 0)
            t1 = time.perf_counter()
            yield from imr.restore(h.ctx, h, 0, view, 0)
            if h.rank == 0:  # both ranks' copies interleave inside
                store_s.append(t1 - t0)
                restore_s.append(time.perf_counter() - t1)

        for r in range(2):
            world.spawn(r, body(world.comm_world_handle(r)))
        cluster.engine.run()
        world.raise_job_errors()

    for _ in range(p.reps):
        rep()
    return {"fenix.imr_checkpoint_ms": statistics.median(store_s) * 1e3,
            "fenix.imr_restore_ms": statistics.median(restore_s) * 1e3}


# -- repro.kokkos ------------------------------------------------------------


def kokkos_views(p: Probe) -> Dict[str, float]:
    rows = int(16 * MIB) // (8 * 256)
    view = A.KokkosRuntime().view("state", shape=(rows, 256))

    def hash_all():
        view.fill(2.0)  # invalidates the per-chunk hash cache
        t0 = time.perf_counter()
        for i in range(view.n_chunks):
            view.chunk_hash(i)
        return time.perf_counter() - t0

    n_create = 1_000

    def create():
        fresh = A.KokkosRuntime()
        for i in range(n_create):
            fresh.view(f"v{i}", shape=(8,))

    return {"kokkos.chunk_hash_mib_s": 16.0 / p.median(hash_all),
            "kokkos.view_create_us": p.median(create) / n_create * 1e6}


# -- repro.core --------------------------------------------------------------


def core_context(p: Probe) -> Dict[str, float]:
    """One rank, a MiniMD-shaped state (61 views, 39 checkpointed)."""
    calls = 500
    out: Dict[str, List[float]] = {k: [] for k in (
        "noop", "discover", "checkpoint", "restore", "memoized")}

    def rep():
        cluster = platform(1)
        world = A.World(cluster, 1)
        handle = world.comm_world_handle(0)
        state = A.MiniMDState(A.KokkosRuntime(), A.minimd_config(), 0, 1)
        captured = state.duplicates

        def region():
            _ = (state, captured)

        def context(**cfg):
            return A.make_context(handle, A.KRConfig(**cfg), cluster,
                                  veloc_service=A.VeloCService(cluster))

        def body():
            kr = context(backend="stdfile", filter=A.never)
            t0 = time.perf_counter()
            yield from kr.checkpoint("probe", 0, region)
            t1 = time.perf_counter()
            for i in range(1, calls + 1):
                yield from kr.checkpoint("probe", i, region)
            t2 = time.perf_counter()
            out["discover"].append(t1 - t0)
            out["noop"].append((t2 - t1) / calls)
            out["memoized"].append(kr.discoveries_memoized / (calls + 1))
            kr = context()  # VeloC backend, checkpoint every iteration
            t0 = time.perf_counter()
            yield from kr.checkpoint("probe", 0, region)
            t1 = time.perf_counter()
            yield from kr.latest_version()
            t2 = time.perf_counter()
            yield from kr.checkpoint("probe", 0, region)  # restores
            out["checkpoint"].append(t1 - t0)
            out["restore"].append(time.perf_counter() - t2)

        world.spawn(0, body())
        cluster.engine.run()
        world.raise_job_errors()

    for _ in range(p.reps):
        rep()
    med = {k: statistics.median(v) for k, v in out.items()}
    return {"core.region_noop_us": med["noop"] * 1e6,
            "core.discover_us": med["discover"] * 1e6,
            "core.checkpoint_ms": med["checkpoint"] * 1e3,
            "core.restore_ms": med["restore"] * 1e3,
            "core.discoveries_memoized_ratio": med["memoized"]}


# -- repro.veloc -------------------------------------------------------------


def veloc_checkpoint(p: Probe) -> Dict[str, float]:
    """The write workload's own op under three data-path configurations,
    timed by its spans (the first, full version is not a sample)."""
    out: Dict[str, float] = {}
    arms = {"veloc.checkpoint_ms": {},
            "veloc.checkpoint_cow_ms": {"dedup": False},
            "veloc.checkpoint_full_ms": {"incremental": False,
                                         "dedup": False}}
    for metric, config in arms.items():
        wl = CkptWrite16MiB(int(p.rng.integers(1 << 31)), p.reps + 1,
                            p.workdir, **config)
        tracer = Tracer()
        for i, inp in enumerate(wl.inputs):
            tracer.enabled = i > 0
            wl.prepare(inp)
            wl.check(inp, wl.run(inp, tracer))
            if i == 0:
                first = dict(wl.rig.client.stats)
        spans = {name: statistics.median(
            s["end"] - s["start"] for s in tracer.spans if s["name"] == name)
            for name in ("kokkos.tracked_write", "veloc.checkpoint")}
        out[metric] = spans["veloc.checkpoint"] * 1e3
        if not config:
            steady = {k: wl.rig.client.stats[k] - first[k] for k in first}
            out["kokkos.tracked_write_us"] = (
                spans["kokkos.tracked_write"] * 1e6)
            out["veloc.dirty_fraction"] = (
                steady["dirty_bytes"] / steady["checkpoint_bytes"])
            out["veloc.dedup_ratio"] = (
                1.0 - steady["novel_bytes"] / steady["dirty_bytes"])
    return out


def veloc_recover(p: Probe) -> Dict[str, float]:
    # the restore workload's own rig: 64 MiB, latest of 4 COW versions
    wl = CkptRestore64MiB(int(p.rng.integers(1 << 31)), 1, p.workdir)

    def rep():
        wl.prepare({})
        t0 = time.perf_counter()
        wl.run({}, Tracer())
        return time.perf_counter() - t0

    return {"veloc.recover_ms": p.median(rep) * 1e3}


def veloc_flush(p: Probe) -> Dict[str, float]:
    def rep():
        rig = A.CheckpointRig(1)
        server = rig.service.server_for(rig.ctx.node)
        server.submit(("probe", 0), None, GIB)
        t0 = time.perf_counter()
        rig.cluster.engine.run()
        return time.perf_counter() - t0

    return {"veloc.flush_ms_per_gib": p.median(rep) * 1e3}


# -- repro.apps / repro.harness ----------------------------------------------


def interleaved(p: Probe, arms: Dict[str, Callable[[], Any]]
                ) -> Dict[str, float]:
    """Median wall seconds per arm, the arms taking turns so that drift
    in machine load lands on all of them alike."""
    samples: Dict[str, List[float]] = {name: [] for name in arms}
    for _ in range(p.reps):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: statistics.median(v) for name, v in samples.items()}


def harness_jobs(p: Probe) -> Dict[str, float]:
    seed = int(p.rng.integers(1, 1 << 31))

    def clean(strategy):
        return lambda: A.heatdis_job(strategy, 64, pfs_servers=4,
                                     cluster_seed=seed)

    def killed(strategy):
        return lambda: A.heatdis_job(strategy, 16, pfs_servers=1,
                                     cluster_seed=seed,
                                     kill=A.kill_plan(5, 4))

    s = interleaved(p, {"none": clean("none"), "full": clean("fenix_kr_veloc"),
                        "relaunch": killed("kr_veloc"),
                        "fenix": killed("fenix_kr_veloc")})

    def build():
        A.JobRunner(A.paper_env(65, pfs_servers=4),
                    A.STRATEGIES["fenix_kr_veloc"], 64, A.NoFailures(),
                    None, "heatdis")

    return {
        "apps.heatdis_none_64r_ms": s["none"] * 1e3,
        "harness.resilience_overhead_pct":
            (s["full"] / s["none"] - 1.0) * 100.0,
        "harness.relaunch_extra_ms": (s["relaunch"] - s["fenix"]) * 1e3,
        "harness.job_build_ms": p.median(build) * 1e3,
    }


# -- repro.parallel ----------------------------------------------------------


def parallel_sweep(p: Probe) -> Dict[str, float]:
    wl = SweepColdWarmJ2(int(p.rng.integers(1 << 31)), 1, p.workdir)
    inp = wl.inputs[0]
    tracer = Tracer()
    tracer.enabled = True
    overheads = []
    for _ in range(p.reps):
        wl.prepare(inp)
        mark = len(tracer.spans)
        cold, _warm, _cache = out = wl.run(inp, tracer)
        wl.check(inp, out)
        span = tracer.spans[mark]  # parallel.run_cells.cold
        overheads.append(span["end"] - span["start"]
                         - sum(r.host_seconds for r in cold) / 2)
    counts = wl.cache_counts
    wl.prepare(inp)
    cell, cache = inp["cells"][0], A.RunCache(inp["cache_dir"])
    result = cold[0]
    n_keys = 200

    def fingerprint():
        A.forget_code_fingerprint()
        A.code_fingerprint()

    def keys():
        for _ in range(n_keys):
            A.cache_key(cell)

    metrics = {
        "parallel.code_fingerprint_ms": p.median(fingerprint) * 1e3,
        "parallel.cache_key_us": p.median(keys) / n_keys * 1e6,
        "parallel.cache_put_ms": p.median(
            lambda: cache.put(cell, result)) * 1e3,
        "parallel.cache_get_ms": p.median(
            lambda: cache.get(cell)) * 1e3,
        "parallel.pool_overhead_ms": statistics.median(overheads) * 1e3,
        "parallel.cache_hit_ratio":
            counts["hits"] / (counts["hits"] + counts["misses"]),
        "parallel.runs_executed": float(counts["executed"]),
    }
    shutil.rmtree(inp["cache_dir"], ignore_errors=True)
    return metrics


# -- observers ---------------------------------------------------------------


def observer_cost(p: Probe) -> Dict[str, float]:
    """Enabled cost over the bare 8-rank kill job; an observer that needs
    another is charged the increment over that prerequisite."""
    seed = int(p.rng.integers(1, 1 << 31))
    sink = os.path.join(p.workdir, "probe.trace.jsonl")

    def arm(**obs):
        def run():
            kwargs = A.observers(**obs)
            try:
                return A.heatdis_job("fenix_kr_veloc", 8, pfs_servers=1,
                                     cluster_seed=seed,
                                     kill=A.kill_plan(5, 4), **kwargs)[0]
            finally:
                if "sink" in obs:
                    kwargs["trace_sink"].close()
        return run

    everything = dict(telemetry=True, monitor=True, profile=True, live=True,
                      sink=sink, audit=True)
    s = interleaved(p, {
        "bare": arm(), "telemetry": arm(telemetry=True),
        "monitor": arm(monitor=True), "profile": arm(profile=True),
        "live": arm(live=True), "sink": arm(monitor=True, sink=sink),
        "audit": arm(audit=True), "all": arm(**everything),
    })

    def pct(arm_name, base="bare"):
        return (s[arm_name] - s[base]) / s["bare"] * 100.0

    metrics = {
        "telemetry.enabled_pct": pct("telemetry"),
        "monitor.enabled_pct": pct("monitor"),
        "profile.enabled_pct": pct("profile", "telemetry"),
        "live.enabled_pct": pct("live"),
        "monitor.trace_sink_pct": pct("sink", "monitor"),
        "align.audit_pct": pct("audit"),
        "observers.all_pct": pct("all"),
        "observers.bare_8r_ms": s["bare"] * 1e3,
    }

    # replay side: two recordings of the same job, then each consumer
    def record():
        capture = A.TraceCapture()
        kwargs = A.observers(telemetry=True, sink=capture)
        report, _plan = A.heatdis_job(
            "fenix_kr_veloc", 8, pfs_servers=1, cluster_seed=seed,
            kill=A.kill_plan(5, 4), **kwargs)
        return kwargs["telemetry"], list(capture.trace), report.wall_time

    tel, records, wall = record()
    _tel_b, records_b, _ = record()
    rules = A.load_rules(A.SLO_RULES)
    n = len(records)
    metrics.update({
        "align.pair_ms": p.median(
            lambda: A.align(records, records_b)) * 1e3,
        "align.key_us_per_record": p.median(
            lambda: A.key_records(records)) / n * 1e6,
        "profile.ledger_ms": p.median(
            lambda: A.build_ledger(tel, wall_time=wall)) * 1e3,
        "monitor.replay_us_per_record": p.median(
            lambda: A.MonitorSuite().replay(records).finish()) / n * 1e6,
        "live.replay_us_per_record": p.median(
            lambda: A.LiveSession(rules=rules).replay(records).finish()
           ) / n * 1e6,
        "telemetry.records": float(n + len(tel.tracer)),
    })
    return metrics


PROBES = [sim_engine, sim_pfs, sim_trace, mpi_p2p, mpi_collectives, mpi_ulfm,
          fenix_recover, fenix_imr, kokkos_views, core_context,
          veloc_checkpoint, veloc_recover, veloc_flush, harness_jobs,
          parallel_sweep, observer_cost]


def run_probes(seed: int, reps: int, workdir: str) -> Dict[str, Any]:
    tracer = Tracer()
    tracer.enabled = True
    metrics: Dict[str, float] = {}
    for fn in PROBES:
        p = Probe(seed, reps, workdir)
        mark = len(tracer.spans)
        tracer.op = f"probe/{fn.__name__}"
        with tracer.span("probe"):
            got = fn(p)
        tracer.spans[mark]["name"] = f"probe.{next(iter(got))}"
        metrics.update(got)
    return {"reps": reps, "metrics": metrics, "spans": tracer.spans,
            "self_time_s": self_times(tracer.spans)}
