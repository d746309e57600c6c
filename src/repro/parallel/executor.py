"""Process-pool campaign executor.

Sweeps are embarrassingly parallel: every (strategy, rank-count, seed)
cell is an independent, deterministic simulation.  :func:`run_cells`
fans the cells of one sweep out over a ``ProcessPoolExecutor``, with the
content-addressed cache consulted first so a re-run only executes
changed cells.  Results come back in input order regardless of worker
scheduling, and each worker builds its own live objects from the
pickle-safe spec -- no shared mutable state -- so parallel output is
bit-identical to a sequential run.

``jobs`` semantics (shared by every experiment entry point):

- ``1`` (default): run inline in this process;
- ``N > 1``: up to N worker processes;
- ``0`` or ``None``: one worker per available CPU.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from functools import partial
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.parallel.cache import RunCache
from repro.parallel.progress import CampaignProgress
from repro.parallel.spec import (
    CellResult,
    CellSpec,
    execute_cell,
    execute_cell_stripped,
)

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value to a concrete worker count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _run_each(
    fn: Callable[[T], R],
    work: Sequence[Tuple[int, str, T]],
    n_workers: int,
    progress: CampaignProgress,
    done: Callable[[int, R, float], dict],
) -> None:
    """The one execution loop: ``fn(item)`` for every ``(index, label,
    item)`` of ``work``, inline or on ``n_workers`` processes.

    ``done(index, value, seconds)`` is called as each item completes
    (completion order under a pool) and returns the keyword arguments of
    the item's ``fresh`` progress event; ``seconds`` is the host time
    spent waiting on the item here -- the call itself inline, next to
    nothing for a pooled item that had already finished.  An item that
    raises is reported as ``failed`` before the raise propagates.
    """
    def pending(pool: Optional[ProcessPoolExecutor]):
        if pool is None:
            for i, label, item in work:
                progress.cell_submitted()
                yield i, label, partial(fn, item)
            return
        futures = {}
        for i, label, item in work:
            futures[pool.submit(fn, item)] = (i, label)
            progress.cell_submitted()
        for fut in as_completed(futures):
            yield (*futures[fut], fut.result)

    with (ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1
          else nullcontext()) as pool:
        for i, label, get in pending(pool):
            t0 = time.perf_counter()
            try:
                value = get()
            except BaseException:
                progress.cell_done(i, label, "failed")
                raise
            progress.cell_done(
                i, label, "fresh", **done(i, value, time.perf_counter() - t0))


def run_cells(
    specs: Sequence[CellSpec],
    jobs: Optional[int] = 1,
    cache: Optional[RunCache] = None,
    progress: Optional[CampaignProgress] = None,
) -> List[CellResult]:
    """Execute every cell, in input order, cache-first then pool.

    Cache hits never reach a worker; only misses are simulated.  With
    ``jobs`` <= 1 (or a single miss) everything runs inline, which is
    also the degenerate case the determinism tests compare against.
    Each fresh result is stored the moment it completes, so a sweep that
    is interrupted -- or crashed by one bad cell -- keeps what it
    finished.

    ``progress`` receives one ``cell_done`` event per cell -- cached
    cells immediately, simulated cells as each finishes (completion
    order under a pool), so a sink shows live state without perturbing
    the input-order result list.
    """
    specs = list(specs)
    results: List[Optional[CellResult]] = [None] * len(specs)
    if progress is None:
        progress = CampaignProgress()  # no sinks: counts, emits nothing
    progress.add_cells(len(specs))
    misses: List[int] = []
    for i, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is None:
            misses.append(i)
            continue
        results[i] = hit
        progress.cell_done(i, spec.label, "cached",
                           alerts=len(hit.report.alerts))

    def store(i: int, result: CellResult, _seconds: float) -> dict:
        results[i] = result
        if cache is not None:
            cache.put(specs[i], result)
        return {"host_seconds": result.host_seconds,
                "alerts": len(result.report.alerts)}

    n_workers = min(resolve_jobs(jobs), len(misses)) if misses else 0
    _run_each(execute_cell_stripped if n_workers > 1 else execute_cell,
              [(i, specs[i].label, specs[i]) for i in misses],
              n_workers, progress, store)
    return results  # type: ignore[return-value]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = 1,
    progress: Optional[CampaignProgress] = None,
) -> List[R]:
    """Order-preserving map for picklable, side-effect-free work.

    Used by drivers whose units are not simulation cells (e.g. the
    Figure 7 view census).  ``fn`` must be a module-level callable.
    Like :func:`run_cells`, an optional ``progress`` tracker gets one
    ``cell_done`` event per item (labelled by repr).
    """
    items = list(items)
    if progress is None:
        progress = CampaignProgress()
    progress.add_cells(len(items))
    results: List[Optional[R]] = [None] * len(items)

    def keep(i: int, value: R, seconds: float) -> dict:
        results[i] = value
        # plain-function items carry no duration of their own: inline
        # this is the call; pooled it is ~0 and the ETA falls back to
        # other fresh cells
        return {"host_seconds": seconds}

    n_workers = min(resolve_jobs(jobs), len(items)) if items else 0
    _run_each(fn, [(i, repr(item), item) for i, item in enumerate(items)],
              n_workers, progress, keep)
    return results  # type: ignore[return-value]
