#!/usr/bin/env python3
"""Building your own resilient application on the library's layers.

Everything the harness does for Heatdis/MiniMD can be wired by hand: this
example writes a small resilient Jacobi-like solver directly against the
public API -- cluster, world, Fenix system, VeloC service, and a
Kokkos-Resilience context -- following the paper's Figure 4 pattern, and
injects a failure.

Run:  python examples/custom_app.py
"""

import numpy as np

from repro.core import KRConfig, every_nth, make_context
from repro.fenix import FenixSystem, Role
from repro.kokkos import KokkosRuntime
from repro.mpi import SUM, World
from repro.sim import Cluster, ClusterSpec, IterationFailure
from repro.veloc import VeloCService

N_RANKS = 4
N_SPARES = 1
N_ITERS = 20
plan = IterationFailure([(2, 13)])  # rank 2 dies at iteration 13

cluster = Cluster(ClusterSpec(n_nodes=N_RANKS + N_SPARES))
world = World(cluster, N_RANKS + N_SPARES)
# one spare, one planned failure.  A second death would find no spare
# left: under the default spare_policy="abort" every rank then raises
# SpareExhaustionError out of system.run (repro.harness.run_job would
# relaunch the job; this hand-built set-up has nobody to)
system = FenixSystem(world, n_spares=N_SPARES)
service = VeloCService(cluster)
config = KRConfig(backend="veloc", filter=every_nth(4))


def app_main(role, comm):
    """One rank's main, re-entered by Fenix after failures (Figure 4)."""
    ctx = comm.ctx
    state = ctx.user.get("state")
    if state is None or role is Role.RECOVERED:
        rt = KokkosRuntime()
        state = {"x": rt.view("x", shape=(8,)), "kr": None}
        ctx.user["state"] = state
    x = state["x"]
    if state["kr"] is None:
        state["kr"] = make_context(comm, config, cluster, veloc_service=service)
        state["kr"].set_role(role)
    kr = state["kr"]
    if role is Role.SURVIVOR:
        kr.reset(comm, role)  # the paper's extended reset

    latest = yield from kr.latest_version()
    if latest < 0 and role is not Role.INITIAL:
        x.fill(0.0)
    start = max(0, latest)

    for i in range(start, N_ITERS):
        plan.check(ctx.rank, i)

        def region(i=i):
            neighbor_sum = yield from comm.allreduce(float(x[0]) + 1.0, op=SUM)
            x.data[:] = 0.5 * x.data + 0.5 * (neighbor_sum / comm.size)

        recovered = not (yield from kr.checkpoint("solve", i, region))
        if recovered:
            print(f"  [t={cluster.engine.now:.4f}s] rank {comm.rank} "
                  f"({role.value}) restored iteration {i}")
    return (comm.rank, float(x[0]))


def rank_process(rank):
    result = yield from system.run(world.context(rank), app_main)
    if result is not None:
        print(f"  rank {result[0]} finished with x[0] = {result[1]:.6f}")


def main() -> None:
    print(f"{N_RANKS} ranks + {N_SPARES} spare; rank 2 dies at iteration 13")
    for r in range(world.n_ranks):
        world.spawn(r, rank_process(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    print(f"dead ranks: {sorted(world.dead)}; "
          f"repairs: {system.generation}; "
          f"simulated time: {cluster.engine.now:.4f}s")


if __name__ == "__main__":
    main()
