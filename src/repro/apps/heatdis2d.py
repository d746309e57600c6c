"""Heatdis with a 2-D block decomposition.

The paper's Heatdis is row-decomposed; production stencils decompose in
blocks to cut surface-to-volume communication.  This variant partitions
the global grid over a ``px x py`` process grid with four-direction halo
exchange, and must produce *bit-identical* results to the single-domain
reference (and therefore to the 1-D variant) -- which the tests assert.

Resilience integration follows the same Figure-4 pattern as the 1-D app,
demonstrating that the checkpoint-region abstraction is decomposition-
agnostic: the same context code covers both layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np

from repro.apps.heatdis import HOT_EDGE, FLOPS_PER_CELL
from repro.core.context import Context
from repro.fenix.roles import Role
from repro.kokkos import KokkosRuntime
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.errors import ConfigError


def process_grid(size: int) -> Tuple[int, int]:
    """Near-square factorization ``(px, py)`` with ``px * py == size``."""
    best = (1, size)
    for px in range(1, int(np.sqrt(size)) + 1):
        if size % px == 0:
            best = (px, size // px)
    return best


@dataclass(frozen=True)
class Heatdis2DConfig:
    """2-D Heatdis problem description (per-rank block sizes)."""

    local_rows: int = 8
    local_cols: int = 8
    modeled_bytes_per_rank: float = 64e6
    n_iters: int = 60
    compute_jitter: float = 0.0
    work_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.local_rows < 1 or self.local_cols < 2:
            raise ConfigError("block too small")
        if self.modeled_bytes_per_rank <= 0:
            raise ConfigError("modeled size must be positive")

    @property
    def modeled_cells(self) -> float:
        return self.modeled_bytes_per_rank / 16.0

    @property
    def modeled_halo_bytes(self) -> float:
        """One block edge at the modelled resolution."""
        return float(np.sqrt(self.modeled_cells)) * 8.0

    @property
    def checkpoint_bytes(self) -> float:
        return self.modeled_bytes_per_rank / 2.0

    def iteration_work(self) -> float:
        return self.modeled_cells * FLOPS_PER_CELL * self.work_multiplier


class Heatdis2DState:
    """Per-rank block with one ghost layer on every side."""

    def __init__(
        self, runtime: KokkosRuntime, cfg: Heatdis2DConfig, comm_rank: int,
        comm_size: int,
    ) -> None:
        self.cfg = cfg
        # the views name their registry weakly: the state owns it, and
        # with it the alias declaration below
        self.runtime = runtime
        self.px, self.py = process_grid(comm_size)
        self.rx = comm_rank % self.px
        self.ry = comm_rank // self.px
        shape = (cfg.local_rows + 2, cfg.local_cols + 2)
        half = cfg.checkpoint_bytes
        self.current = runtime.view("heatdis2d.grid", shape=shape,
                                    modeled_nbytes=half)
        self.next = runtime.view("heatdis2d.grid_next", shape=shape,
                                 modeled_nbytes=half)
        runtime.declare_alias("heatdis2d.grid_next", "heatdis2d.grid")
        self.progress = runtime.view("heatdis2d.progress", shape=(2,),
                                     modeled_nbytes=16.0)
        self.apply_boundaries()

    # -- neighbours ------------------------------------------------------

    def neighbor(self, dx: int, dy: int) -> Optional[int]:
        nx, ny = self.rx + dx, self.ry + dy
        if 0 <= nx < self.px and 0 <= ny < self.py:
            return ny * self.px + nx
        return None

    @property
    def on_top_edge(self) -> bool:
        return self.ry == 0

    # -- boundaries --------------------------------------------------------

    def apply_boundaries(self) -> None:
        """Global Dirichlet hot top edge (in the top blocks' ghost row)."""
        if self.on_top_edge:
            self.current.data[0, :] = HOT_EDGE
            self.next.data[0, :] = HOT_EDGE

    def reinitialize(self) -> None:
        self.current.data[:] = 0.0
        self.next.data[:] = 0.0
        self.progress.data[:] = 0.0
        self.apply_boundaries()


def sweep_2d(state: Heatdis2DState) -> None:
    """Five-point Jacobi sweep over the owned block (vectorized, ghost
    layers already populated).

    Boundary conditions are encoded entirely in the ghost layers: the
    global top ghost row is the hot Dirichlet edge; every other global
    ghost stays at zero (cold Dirichlet), matching the reference solver.
    """
    cur = state.current.data
    nxt = state.next.data
    nxt[1:-1, 1:-1] = 0.25 * (
        cur[:-2, 1:-1] + cur[2:, 1:-1] + cur[1:-1, :-2] + cur[1:-1, 2:]
    )


def halo_exchange_2d(
    h: CommHandle, state: Heatdis2DState, cfg: Heatdis2DConfig
) -> Generator[Event, Any, None]:
    """Four-direction halo exchange with deadlock-free pairwise phases."""
    grid = state.current.data
    nbytes = cfg.modeled_halo_bytes

    def xfer(dest, source, send_slice, recv_slice, tag):
        def gen():
            if dest is None and source is None:
                return
            if dest is not None and source is not None:
                got = yield from h.sendrecv(
                    np.ascontiguousarray(send_slice), dest=dest,
                    source=source, sendtag=tag, nbytes=nbytes,
                )
                recv_slice[...] = got
            elif dest is not None:
                yield from h.send(
                    np.ascontiguousarray(send_slice), dest=dest, tag=tag,
                    nbytes=nbytes,
                )
            else:
                got = yield from h.recv(source=source, tag=tag)
                recv_slice[...] = got

        return gen()

    up, down = state.neighbor(0, -1), state.neighbor(0, 1)
    left, right = state.neighbor(-1, 0), state.neighbor(1, 0)
    # vertical phase 1: send first owned row up, receive from below
    yield from xfer(up, down, grid[1, 1:-1], grid[-1, 1:-1], 30)
    # vertical phase 2: send last owned row down, receive from above
    yield from xfer(down, up, grid[-2, 1:-1], grid[0, 1:-1], 31)
    # horizontal phase 1: send first owned column left, receive from right
    yield from xfer(left, right, grid[1:-1, 1], grid[1:-1, -1], 32)
    # horizontal phase 2: send last owned column right, receive from left
    yield from xfer(right, left, grid[1:-1, -2], grid[1:-1, 0], 33)


def heatdis2d_iteration(
    h: CommHandle, state: Heatdis2DState, cfg: Heatdis2DConfig
) -> Generator[Event, Any, None]:
    yield from halo_exchange_2d(h, state, cfg)
    sweep_2d(state)
    yield from h.ctx.compute(work=cfg.iteration_work(),
                             jitter=cfg.compute_jitter)
    state.current.data, state.next.data = state.next.data, state.current.data


def heatdis2d_reference(
    cfg: Heatdis2DConfig, px: int, py: int, n_iters: int
) -> np.ndarray:
    """Single-domain solution of the same global problem."""
    rows = cfg.local_rows * py
    cols = cfg.local_cols * px
    grid = np.zeros((rows + 2, cols + 2))
    nxt = np.zeros_like(grid)
    grid[0, :] = HOT_EDGE
    nxt[0, :] = HOT_EDGE
    for _ in range(n_iters):
        nxt[1:-1, 1:-1] = 0.25 * (
            grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        )
        grid, nxt = nxt, grid
    return grid[1:-1, 1:-1]


def make_heatdis2d_main(
    cfg: Heatdis2DConfig,
    make_kr: Any,
    failure_plan: Any = None,
    results: Optional[Dict[int, Any]] = None,
    tracker: Any = None,
):
    """Resilient 2-D Heatdis main (the Figure-4 pattern, unchanged)."""

    def main(role: Role, h: CommHandle) -> Generator[Event, Any, Any]:
        ctx = h.ctx
        persistent = ctx.user.setdefault("heatdis2d", {})
        state: Optional[Heatdis2DState] = persistent.get("state")
        kr: Optional[Context] = persistent.get("kr")
        if state is None or role is Role.RECOVERED:
            runtime = KokkosRuntime()
            state = Heatdis2DState(runtime, cfg, h.rank, h.size)
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
            state.reinitialize()
        start = max(0, latest)

        for i in range(start, cfg.n_iters):
            if failure_plan is not None:
                failure_plan.check(ctx.rank, i)

            def region(i=i):
                yield from heatdis2d_iteration(h, state, cfg)
                state.progress[0] = float(i)

            is_recompute = tracker is not None and tracker.is_recompute(
                h.rank, i
            )
            if is_recompute:
                with ctx.recompute(i):
                    yield from kr.checkpoint("heatdis2d", i, region)
            else:
                yield from kr.checkpoint("heatdis2d", i, region)
                if tracker is not None:
                    tracker.advance(h.rank, i)
        outcome = {
            "rank": h.rank,
            "block": state.current.data[1:-1, 1:-1].copy(),
            "grid_pos": (state.rx, state.ry),
            "proc_grid": (state.px, state.py),
        }
        if results is not None:
            results[h.rank] = outcome
        return outcome

    return main


def gather_blocks(results: Dict[int, Dict], n_ranks: int) -> np.ndarray:
    """Reassemble the global grid from per-rank blocks (test helper)."""
    px, py = results[0]["proc_grid"]
    rows, cols = results[0]["block"].shape
    out = np.zeros((rows * py, cols * px))
    for r in range(n_ranks):
        rx, ry = results[r]["grid_pos"]
        out[ry * rows:(ry + 1) * rows, rx * cols:(rx + 1) * cols] = (
            results[r]["block"]
        )
    return out
