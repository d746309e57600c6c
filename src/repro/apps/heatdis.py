"""Heatdis: the VeloC heat-distribution benchmark, ported to Kokkos views.

The paper's first application (Section VI-A): a 2-D five-point stencil
with a fixed hot top edge, row-decomposed across ranks, running either a
static number of iterations (Figure 5) or until convergence (the
partial-rollback demonstration).  "All tests with Heatdis perform 6
checkpoints, which are each half the size of the application's data" --
which falls out naturally here: the application holds two grid copies
(current + next) and checkpoints only the current one.

Real numerics: the stencil is vectorized numpy updating a small local
grid; a pure single-domain reference (:func:`heatdis_reference`) validates
the decomposed solution exactly.  Modelled size: ``modeled_bytes_per_rank``
scales compute cost, halo message bytes, and checkpoint bytes to the
paper's configurations (16 MB .. 1 GB per node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

import numpy as np

from repro.core.context import Context
from repro.fenix.roles import Role
from repro.kokkos import KokkosRuntime
from repro.mpi import SUM
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.errors import ConfigError

#: boundary temperature applied along the global top edge
HOT_EDGE = 100.0
#: stencil flops per cell per iteration (cost model)
FLOPS_PER_CELL = 6.0


@dataclass(frozen=True)
class HeatdisConfig:
    """Heatdis problem description.

    Attributes:
        local_rows/cols: real per-rank grid (kept small; correctness).
        modeled_bytes_per_rank: the data size the experiment *represents*
            (the paper's 16 MB .. 1 GB per node); drives all costs.
        n_iters: static iteration count (iteration-count variant).
        convergence_threshold: stop when the global update delta drops
            below this (convergence variant); ``None`` disables.
        compute_jitter: lognormal sigma for per-iteration performance
            variability.
        work_multiplier: extra compute per modelled iteration.  The paper's
            runs perform far more sweeps between checkpoints than our 60
            modelled iterations; this folds that work into each iteration
            so the compute : checkpoint cost ratio matches the testbed.
    """

    local_rows: int = 24
    cols: int = 32
    modeled_bytes_per_rank: float = 64e6
    n_iters: int = 120
    convergence_threshold: Optional[float] = None
    compute_jitter: float = 0.0
    work_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.local_rows < 1 or self.cols < 3:
            raise ConfigError("grid too small")
        if self.modeled_bytes_per_rank <= 0:
            raise ConfigError("modeled size must be positive")

    @property
    def modeled_cells(self) -> float:
        """Cells represented per rank (two float64 grid copies)."""
        return self.modeled_bytes_per_rank / (8.0 * 2.0)

    @property
    def modeled_halo_bytes(self) -> float:
        """Bytes of one halo row at the modelled resolution (assume a
        square modelled grid)."""
        return float(np.sqrt(self.modeled_cells)) * 8.0

    @property
    def checkpoint_bytes(self) -> float:
        """One grid copy: half the application data, as the paper states."""
        return self.modeled_bytes_per_rank / 2.0

    def iteration_work(self) -> float:
        """Compute work units (flops) for one modelled iteration."""
        return self.modeled_cells * FLOPS_PER_CELL * self.work_multiplier


class HeatdisState:
    """Per-rank grids as Kokkos views (with the swap view aliased)."""

    def __init__(self, runtime: KokkosRuntime, cfg: HeatdisConfig, comm_rank: int,
                 comm_size: int) -> None:
        self.runtime = runtime
        self.cfg = cfg
        shape = (cfg.local_rows + 2, cfg.cols)  # two ghost rows
        half = cfg.checkpoint_bytes
        self.current = runtime.view(
            "heatdis.grid", shape=shape, modeled_nbytes=half
        )
        self.next = runtime.view(
            "heatdis.grid_next", shape=shape, modeled_nbytes=half
        )
        # the swap buffer holds the same logical content: never checkpoint
        runtime.declare_alias("heatdis.grid_next", "heatdis.grid")
        self.progress = runtime.view(
            "heatdis.progress", shape=(2,), modeled_nbytes=16.0
        )
        if comm_rank == 0:
            # global top edge is the hot boundary (lives in rank 0's ghost)
            self.current.data[0, :] = HOT_EDGE
            self.next.data[0, :] = HOT_EDGE

    def reinitialize(self, comm_rank: int) -> None:
        """Reset to initial conditions (the re-init path when no
        checkpoint is restorable)."""
        self.current.data[:] = 0.0
        self.next.data[:] = 0.0
        self.progress.data[:] = 0.0
        if comm_rank == 0:
            self.current.data[0, :] = HOT_EDGE
            self.next.data[0, :] = HOT_EDGE


def stencil_sweep(current: np.ndarray, nxt: np.ndarray) -> float:
    """One vectorized five-point Jacobi sweep over the owned rows.

    Returns the local L1 delta between iterations.  Operates in place on
    ``nxt`` (no temporaries beyond one difference buffer).
    """
    interior = slice(1, -1)
    nxt[interior, 1:-1] = 0.25 * (
        current[:-2, 1:-1]
        + current[2:, 1:-1]
        + current[interior, :-2]
        + current[interior, 2:]
    )
    # insulated side walls (Neumann): copy the adjacent column
    nxt[interior, 0] = nxt[interior, 1]
    nxt[interior, -1] = nxt[interior, -2]
    return float(np.abs(nxt[interior, :] - current[interior, :]).sum())


def halo_exchange(
    h: CommHandle, state: HeatdisState, cfg: HeatdisConfig
) -> Generator[Event, Any, None]:
    """Exchange ghost rows with the up/down neighbours (deadlock-free
    sendrecv pairs), charging the modelled halo size."""
    grid = state.current.data
    rank, size = h.rank, h.size
    up, down = rank - 1, rank + 1
    nbytes = cfg.modeled_halo_bytes
    if size == 1:
        return
    # rows go out as views: send_op snapshots every payload it is given
    # phase 1: send first owned row up / receive ghost from below
    if up >= 0 and down < size:
        got = yield from h.sendrecv(
            grid[1, :], dest=up, source=down, sendtag=10, nbytes=nbytes
        )
        grid[-1, :] = got
    elif up >= 0:
        yield from h.send(grid[1, :], dest=up, tag=10, nbytes=nbytes)
    elif down < size:
        grid[-1, :] = yield from h.recv(source=down, tag=10)
    # phase 2: send last owned row down / receive ghost from above
    if down < size and up >= 0:
        got = yield from h.sendrecv(
            grid[-2, :], dest=down, source=up, sendtag=11, nbytes=nbytes
        )
        grid[0, :] = got
    elif down < size:
        yield from h.send(grid[-2, :], dest=down, tag=11, nbytes=nbytes)
    elif up >= 0:
        grid[0, :] = yield from h.recv(source=up, tag=11)


def heatdis_iteration(
    h: CommHandle,
    state: HeatdisState,
    cfg: HeatdisConfig,
    reduce_error: bool,
) -> Generator[Event, Any, Optional[float]]:
    """One full iteration: halo exchange, stencil (+modelled compute
    charge), swap, optional global delta reduction."""
    ctx = h.ctx
    yield from halo_exchange(h, state, cfg)
    local_delta = stencil_sweep(state.current.data, state.next.data)
    yield from ctx.compute(work=cfg.iteration_work(), jitter=cfg.compute_jitter)
    # swap current/next (the aliased pair)
    state.current.data, state.next.data = state.next.data, state.current.data
    if reduce_error:
        total = yield from h.allreduce(local_delta, op=SUM, nbytes=8.0)
        return float(total)
    return None


def heatdis_reference(cfg: HeatdisConfig, n_ranks: int, n_iters: int) -> np.ndarray:
    """Single-domain reference: the same global problem without
    decomposition or resilience.  Returns the final global grid (owned
    rows only, stacked)."""
    total_rows = cfg.local_rows * n_ranks
    grid = np.zeros((total_rows + 2, cfg.cols))
    nxt = np.zeros_like(grid)
    grid[0, :] = HOT_EDGE
    nxt[0, :] = HOT_EDGE
    for _ in range(n_iters):
        stencil_sweep(grid, nxt)
        grid, nxt = nxt, grid
    return grid[1:-1, :]


def make_heatdis_main(
    cfg: HeatdisConfig,
    make_kr: "Any",
    failure_plan: Any = None,
    partial_rollback: bool = False,
    results: Optional[Dict[int, Any]] = None,
    tracker: Any = None,
):
    """Build the Fenix-style resilient Heatdis main (Figure 4 pattern).

    Args:
        cfg: problem configuration.
        make_kr: callable ``(handle) -> Context`` building the resilience
            context for a fresh process (the harness closes over backend
            wiring and the checkpoint-interval filter).
        failure_plan: consulted at each iteration top (may kill this rank).
        partial_rollback: run the convergence variant where survivors skip
            data restoration (requires ``cfg.convergence_threshold``).
        results: optional dict collecting per-comm-rank outcomes.

    Returns a generator function ``main(role, handle)`` for
    :meth:`FenixSystem.run` (also runnable without Fenix via the harness's
    relaunch driver, which passes ``Role.INITIAL``).
    """
    if partial_rollback and cfg.convergence_threshold is None:
        raise ConfigError("partial rollback requires a convergence threshold")

    def main(role: Role, h: CommHandle) -> Generator[Event, Any, Any]:
        ctx = h.ctx
        persistent = ctx.user.setdefault("heatdis", {})
        state: Optional[HeatdisState] = persistent.get("state")
        kr: Optional[Context] = persistent.get("kr")
        if state is None or role is Role.RECOVERED:
            runtime = KokkosRuntime()
            state = HeatdisState(runtime, cfg, h.rank, h.size)
            persistent["state"] = state
            kr = None
        if kr is None:
            kr = make_kr(h)
            persistent["kr"] = kr
            kr.set_role(role)
        elif role is Role.SURVIVOR:
            kr.reset(h, role)
        else:
            kr.set_role(role)

        latest = yield from kr.latest_version()
        if latest < 0 and role is not Role.INITIAL:
            state.reinitialize(h.rank)
        start = max(0, latest)

        check_convergence = cfg.convergence_threshold is not None
        i = start
        delta = np.inf
        while True:
            if check_convergence:
                if delta <= cfg.convergence_threshold:
                    break
                if i >= cfg.n_iters:  # safety bound
                    break
            elif i >= cfg.n_iters:
                break
            if failure_plan is not None:
                failure_plan.check(ctx.rank, i)

            def region(i=i):
                result = yield from heatdis_iteration(
                    h, state, cfg, reduce_error=check_convergence
                )
                if result is not None:
                    state.progress[1] = result
                state.progress[0] = float(i)

            with ctx.iteration(i, tracker, h.rank):
                executed = yield from kr.checkpoint("heatdis", i, region)
            if check_convergence:
                if executed:
                    delta = float(state.progress[1])
                else:
                    # recovery iteration: survivors under partial rollback
                    # keep their (newer) data; resync delta next iteration
                    delta = np.inf
            i += 1
        outcome = {
            "rank": h.rank,
            "iterations": i,
            "grid": state.current.data[1:-1, :].copy(),
            "delta": None if not check_convergence else delta,
            "kr": kr,
        }
        if results is not None:
            results[h.rank] = outcome
        return outcome

    return main
