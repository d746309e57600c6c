"""Heatdis with *manual* resilience (no Kokkos Resilience layer).

The paper's reference configurations (Section V-A): "VeloC alone" and
"Fenix with VeloC but without Kokkos Resilience".  These exist to
demonstrate the headline claim that letting Kokkos Resilience manage VeloC
adds **no or negligible overhead** over hand-written integration -- so the
code here does by hand exactly what :mod:`repro.core` automates:
``mem_protect`` each region, checkpoint on the interval, query/reduce the
best restorable version, recover.

The Fenix+VeloC variant also shows the integration burden the paper
quantifies: using VeloC in non-collective mode and performing the global
best-version reduction manually.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.apps.heatdis import HeatdisConfig, HeatdisState, heatdis_iteration
from repro.core.backends.base import region_id_for
from repro.fenix.roles import Role
from repro.kokkos import KokkosRuntime
from repro.mpi import MIN
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.veloc import VeloCClient, VeloCConfig, VeloCService


def make_manual_heatdis_main(
    cfg: HeatdisConfig,
    cluster: Any,
    service: VeloCService,
    ckpt_interval: int,
    use_fenix: bool,
    failure_plan: Any = None,
    results: Optional[Dict[int, Any]] = None,
    tracker: Any = None,
    incremental: bool = True,
):
    """Build a hand-integrated resilient Heatdis main.

    ``use_fenix=False`` gives the "VeloC alone" configuration (collective
    VeloC; the job is relaunched by the harness after failures).
    ``use_fenix=True`` gives "Fenix with VeloC but without Kokkos
    Resilience": non-collective VeloC with the manual reduction.
    """
    mode = "single" if use_fenix else "collective"

    def main(role: Role, h: CommHandle) -> Generator[Event, Any, Any]:
        ctx = h.ctx
        persistent = ctx.user.setdefault("heatdis_manual", {})
        state: Optional[HeatdisState] = persistent.get("state")
        client: Optional[VeloCClient] = persistent.get("client")
        if state is None or role is Role.RECOVERED:
            runtime = KokkosRuntime()
            state = HeatdisState(runtime, cfg, h.rank, h.size)
            persistent["state"] = state
            client = None
        if client is None:
            client = VeloCClient(
                ctx, cluster, service,
                VeloCConfig(mode=mode, ckpt_name="manual",
                            incremental=incremental),
                comm=h,
            )
            # manual region registration: the chore KR automates
            client.mem_protect(region_id_for(state.current.label), state.current)
            client.mem_protect(region_id_for(state.progress.label), state.progress)
            persistent["client"] = client
        elif role is Role.SURVIVOR:
            # manual communicator/rank refresh after repair
            client.set_comm(h)

        # manual best-version query
        if use_fenix:
            local = client.local_versions()
            local_best = max(local) if local else -1
            latest = int((yield from h.allreduce(local_best, op=MIN, nbytes=8.0)))
        else:
            latest = yield from client.restart_test()
        if latest >= 0:
            yield from client.recover(latest)
            start = int(state.progress[0]) + 1
        else:
            if role is not Role.INITIAL:
                state.reinitialize(h.rank)
            start = 0

        for i in range(start, cfg.n_iters):
            if failure_plan is not None:
                failure_plan.check(ctx.rank, i)
            with ctx.iteration(i, tracker, h.rank):
                yield from heatdis_iteration(h, state, cfg, reduce_error=False)
            state.progress[0] = float(i)
            if i > 0 and i % ckpt_interval == 0:
                yield from client.checkpoint(i)
        outcome = {
            "rank": h.rank,
            "iterations": cfg.n_iters,
            "grid": state.current.data[1:-1, :].copy(),
        }
        if results is not None:
            results[h.rank] = outcome
        return outcome

    return main
