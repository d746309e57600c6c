"""Elastic Heatdis: shrink-and-rebalance continuation after failures.

The paper's future work (Section VII-A) names "techniques like shrinking
and growing the total number of ranks dynamically throughout execution and
migrating processes for post-failure load balancing".  This application
implements the shrinking half end-to-end:

- it runs under Fenix with **zero spares** and the ``shrink`` policy, so a
  failure leaves a *smaller* resilient communicator;
- on re-entry, the survivors repartition the fixed global grid evenly
  over the new rank count (the load balancing) and **redistribute** the
  last checkpoint: each survivor reads, from the persistent tier, the old
  decomposition's blocks overlapping its new row range and reassembles
  its state;
- computation then continues with the same numerics, so the final answer
  is bit-identical to a fault-free run -- only the decomposition changed.

A rank's slab is Heatdis's :class:`~repro.apps.heatdis.HeatdisState`,
sized to its partition, and its halo is Heatdis's ``halo_exchange``.
Only the checkpoint differs: it is stored with explicit row-range
metadata (via a raw PFS object per rank) precisely so a *different*
decomposition can consume it -- the capability fixed-shape
``mem_protect`` registration cannot express, which is why this main
integrates VeloC-style storage manually.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.apps.heatdis import (
    HeatdisConfig,
    HeatdisState,
    halo_exchange,
    stencil_sweep,
)
from repro.fenix.roles import Role
from repro.kokkos import KokkosRuntime
from repro.mpi import MIN
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY


def partition_rows(total_rows: int, size: int, rank: int) -> Tuple[int, int]:
    """Even block partition: returns ``[row_lo, row_hi)`` for ``rank``."""
    base, extra = divmod(total_rows, size)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def _ckpt_key(version: int, rank: int) -> Tuple:
    return ("elastic", int(version), int(rank))


def _checkpoint(
    h: CommHandle, state: HeatdisState, rows: Tuple[int, int], version: int,
    cluster: Any,
) -> Generator[Event, Any, None]:
    """Store this rank's owned ``rows`` + row-range metadata on the PFS.

    Synchronous write (elastic restart needs globally visible data, and
    redistribution reads arbitrary ranks' objects)."""
    ctx = h.ctx
    t0 = ctx.engine.now
    payload = {
        "rows": state.current.data[1:-1, :].copy(),
        "range": rows,
        "size": h.size,
    }
    yield from cluster.pfs.write(
        _ckpt_key(version, h.rank), payload, state.cfg.checkpoint_bytes,
        ctx.node,
    )
    ctx.account.charge(CHECKPOINT_FUNCTION, ctx.engine.now - t0)


def _complete_versions(cluster: Any, total_rows: int) -> List[int]:
    """Versions whose stored blocks cover the whole global grid (a
    checkpoint wave interrupted by the failure is incomplete and unusable,
    whatever decomposition wrote it)."""
    by_version: Dict[int, List[Tuple[int, int]]] = {}
    for key in cluster.pfs.keys():
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "elastic":
            lo, hi = cluster.pfs.peek(key)["range"]
            by_version.setdefault(key[1], []).append((lo, hi))
    complete = []
    for version, ranges in by_version.items():
        covered = 0
        for lo, hi in sorted(ranges):
            if lo > covered:
                break
            covered = max(covered, hi)
        if covered >= total_rows:
            complete.append(version)
    return sorted(complete)


def _redistribute(
    h: CommHandle, state: HeatdisState, rows: Tuple[int, int], version: int,
    cluster: Any,
) -> Generator[Event, Any, None]:
    """Rebuild this rank's (new) slab, global ``rows``, from the old
    decomposition's checkpoint objects overlapping it."""
    ctx = h.ctx
    t0 = ctx.engine.now
    owned = state.current.data[1:-1, :]
    needed = range(*rows)
    # find every stored block of this version (any old rank id)
    keys = [
        key for key in cluster.pfs.keys()
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "elastic"
        and key[1] == int(version)
    ]
    filled = 0
    for key in sorted(keys, key=lambda k: k[2]):
        # metadata peek is free; the timed read only happens on overlap
        meta = cluster.pfs.peek(key)
        lo, hi = meta["range"]
        if hi <= needed.start or lo >= needed.stop:
            continue
        payload = yield from cluster.pfs.read(key, ctx.node)
        src_rows = payload["rows"]
        src_lo = max(lo, needed.start)
        src_hi = min(hi, needed.stop)
        owned[src_lo - needed.start:src_hi - needed.start, :] = (
            src_rows[src_lo - lo:src_hi - lo, :]
        )
        filled += src_hi - src_lo
    if filled != len(needed):
        raise RuntimeError(
            f"elastic restart: recovered {filled}/{len(needed)} rows"
        )
    ctx.account.charge(DATA_RECOVERY, ctx.engine.now - t0)


def make_elastic_heatdis_main(
    cfg: HeatdisConfig,
    cluster: Any,
    total_rows: int,
    initial_ranks: int,
    ckpt_interval: int,
    failure_plan: Any = None,
    results: Optional[Dict[int, Any]] = None,
    tracker: Any = None,
):
    """Build the elastic main: run under ``FenixSystem(n_spares=0,
    spare_policy='shrink')``.  ``total_rows`` fixes the global problem
    regardless of how many ranks remain; ``initial_ranks`` anchors the
    per-row compute cost model.

    ``tracker`` (a :class:`~repro.harness.recompute.RecomputeTracker`)
    marks re-executed iterations after a shrink so profilers charge the
    survivors' replay to ``recompute``; keyed by *world* rank, since the
    shrink renumbers communicator slots but the physical process doing
    the replay stays the same."""
    # at the initial decomposition each rank charges cfg.iteration_work()
    per_row_work = cfg.iteration_work() * initial_ranks / total_rows

    def main(role: Role, h: CommHandle) -> Generator[Event, Any, Any]:
        ctx = h.ctx
        # the decomposition depends on the CURRENT communicator size, so
        # state is rebuilt whenever this rank's partition changed (the
        # post-failure load rebalance)
        persistent = ctx.user.setdefault("elastic", {})
        state: Optional[HeatdisState] = persistent.get("state")
        rows = partition_rows(total_rows, h.size, h.rank)
        rebuilt = False
        if state is None or persistent["rows"] != rows:
            # the slab is a Heatdis grid of this partition's height; its
            # hot edge goes to comm rank 0, the rank whose rows start at 0
            state = HeatdisState(KokkosRuntime(),
                                 replace(cfg, local_rows=rows[1] - rows[0]),
                                 h.rank, h.size)
            persistent["state"] = state
            persistent["rows"] = rows
            rebuilt = True

        # agree on the newest complete version (every rank sees the same
        # PFS, but the collective keeps the survivors in lockstep)
        complete = _complete_versions(cluster, total_rows)
        local_best = complete[-1] if complete else -1
        latest = int((yield from h.allreduce(local_best, op=MIN, nbytes=8.0)))
        if latest >= 0 and (rebuilt or role is not Role.INITIAL):
            yield from _redistribute(h, state, rows, latest, cluster)
            start = latest + 1
        else:
            start = 0

        work = per_row_work * (rows[1] - rows[0])
        for i in range(start, cfg.n_iters):
            if failure_plan is not None:
                failure_plan.check(ctx.rank, i)
            with ctx.iteration(i, tracker, ctx.rank):
                yield from halo_exchange(h, state, cfg)
                stencil_sweep(state.current.data, state.next.data)
                yield from ctx.compute(work=work, jitter=cfg.compute_jitter)
                state.current.data, state.next.data = (
                    state.next.data, state.current.data,
                )
                if i > 0 and i % ckpt_interval == 0:
                    yield from _checkpoint(h, state, rows, i, cluster)
        outcome = {
            "rank": h.rank,
            "size": h.size,
            "range": rows,
            "rows": state.current.data[1:-1, :].copy(),
        }
        if results is not None:
            results[h.rank] = outcome
        return outcome

    return main


def gather_elastic(results: Dict[int, Dict], total_rows: int,
                   cols: int) -> np.ndarray:
    """Reassemble the global grid from (possibly shrunk) results."""
    out = np.full((total_rows, cols), np.nan)
    for outcome in results.values():
        lo, hi = outcome["range"]
        out[lo:hi, :] = outcome["rows"]
    assert not np.isnan(out).any(), "gaps in the reassembled grid"
    return out
