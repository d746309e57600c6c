"""The per-rank time ledger: every simulated second attributed once.

Consumes a telemetered run's span stream (:class:`repro.telemetry.spans.Tracer`)
and produces, for each world rank, an exact partition of the rank's
makespan over :data:`repro.profile.categories.CATEGORIES`.  The hard
invariant -- checked on every build, not best-effort -- is

    sum(categories) == makespan          (per rank, to float tolerance)

which holds by construction: the builder sweeps the rank's timeline over
elementary segments between span boundaries, each segment is charged to
exactly one category (the highest-priority covering span, or ``idle``
when nothing covers it), and two post-passes only *move* seconds between
categories (flush congestion out of ``compute``, the post-kill tail of a
failed MPI wait into ``failure_detection``).

Identity notes:

- a span belongs to the world rank :func:`repro.vocabulary
  .world_rank` names: ``rankN`` is world rank N, and a layer track
  (``veloc.rank2``, ``imr.rank2``) goes by the span's ``wrank`` -- under
  Fenix's in-place repair a replacement process adopts the dead rank's
  checkpoint id, so the track number alone would attribute the
  replacement's recovery work to the corpse;
- ring-buffer drops in the legacy :class:`~repro.sim.trace.Trace` are
  surfaced on the ledger (``dropped``/``dropped_window``) so consumers
  can refuse to trust an attribution built over an evicted window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.profile.categories import (
    APP_MPI,
    CATEGORIES,
    COMPUTE,
    FAILURE_DETECTION,
    FLUSH_CONGESTION,
    IDLE,
    categorize,
)
from repro.util.units import format_table
from repro.vocabulary import RECOVERY_STAGES, world_rank

#: priority of the synthesized post-kill detection segment: above
#: app-MPI and recompute (a rank hanging on a corpse is detecting, not
#: recomputing), below every recovery-layer span
_DETECT_PRIORITY = 35

#: relative float tolerance for the conservation invariant
_REL_TOL = 1e-9


class ConservationError(AssertionError):
    """The per-rank categories failed to sum to the rank's makespan."""


@dataclass
class _Interval:
    """One attributable interval on a rank's timeline."""

    start: float
    end: float
    category: str
    priority: int
    order: int  # tie-break: later-opened (deeper) span wins
    congestion: float = 0.0  # seconds of flush-induced slowdown inside
    won: float = 0.0  # seconds this interval actually won in the sweep


@dataclass
class RankLedger:
    """One rank's exact time partition."""

    rank: int
    start: float
    end: float
    categories: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def accounted(self) -> float:
        return sum(self.categories.values())

    @property
    def residual(self) -> float:
        return self.makespan - self.accounted

    def get(self, category: str) -> float:
        return self.categories.get(category, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "makespan": self.makespan,
            "categories": {c: self.categories.get(c, 0.0) for c in CATEGORIES},
        }


@dataclass
class ProfileLedger:
    """The full job ledger plus attribution-quality metadata."""

    ranks: Dict[int, RankLedger]
    wall_time: Optional[float] = None
    dropped: int = 0
    dropped_window: Optional[Tuple[float, float]] = None
    #: checkpoint data-path volume (modelled bytes from the VeloC
    #: counters): logical vs memcpy'd vs flushed-after-dedup, with the
    #: derived dirty_fraction / dedup_ratio; empty when no VeloC ran
    data_path: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """False when ring-buffer evictions may have hidden records."""
        return self.dropped == 0

    def mean(self) -> Dict[str, float]:
        """Mean per-rank seconds by category (the figures' bar heights)."""
        out = {c: 0.0 for c in CATEGORIES}
        if not self.ranks:
            return out
        for rl in self.ranks.values():
            for c in CATEGORIES:
                out[c] += rl.get(c)
        n = len(self.ranks)
        return {c: v / n for c, v in out.items()}

    def total(self) -> Dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for rl in self.ranks.values():
            for c in CATEGORIES:
                out[c] += rl.get(c)
        return out

    def mean_makespan(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(rl.makespan for rl in self.ranks.values()) / len(self.ranks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "wall_time": self.wall_time,
            "n_ranks": len(self.ranks),
            "dropped": self.dropped,
            "dropped_window": (
                list(self.dropped_window) if self.dropped_window else None
            ),
            "mean": self.mean(),
            "mean_makespan": self.mean_makespan(),
            "data_path": dict(self.data_path),
            "ranks": {str(r): rl.to_dict()
                      for r, rl in sorted(self.ranks.items())},
        }


def _collect(telemetry: Any) -> Tuple[
    Dict[int, List[_Interval]], Dict[int, List[float]], List[float]
]:
    """Group tracer records by world rank.

    Returns ``(intervals, marks, deaths)``: attributable intervals and
    bare timestamp marks (instants / span edges that only extend the
    rank's observed makespan) per rank, plus all rank-death times.
    """
    tracer = telemetry.tracer
    end_of_time = 0.0
    for rec in tracer.spans:
        if rec.end is not None:
            end_of_time = max(end_of_time, rec.end)
    for rec in tracer.instants:
        end_of_time = max(end_of_time, rec.start)

    intervals: Dict[int, List[_Interval]] = {}
    marks: Dict[int, List[float]] = {}
    deaths: List[float] = []

    for rec in tracer.instants:
        if rec.name in RECOVERY_STAGES["failure"]:
            deaths.append(rec.start)
        if rec.name == "rank_spawn":
            rank = rec.fields.get("rank")
            if rank is not None:
                marks.setdefault(int(rank), []).append(rec.start)
            continue
        rank = world_rank(rec.source, rec.fields)
        if rank is not None:
            marks.setdefault(rank, []).append(rec.start)

    for order, rec in enumerate(tracer.spans):
        rank = world_rank(rec.source, rec.fields)
        if rank is None:
            continue
        end = rec.end if rec.end is not None else end_of_time
        marks.setdefault(rank, []).extend((rec.start, end))
        cat = categorize(rec.name, rec.fields)
        if cat is None or end <= rec.start:
            continue
        category, priority = cat
        congestion = 0.0
        if rec.name == "compute":
            congestion = float(rec.fields.get("congestion") or 0.0)
        iv = _Interval(rec.start, end, category, priority, order,
                       congestion=congestion)
        # a failed MPI wait: everything after the triggering death is
        # time spent hanging on a corpse -- failure detection, not app-MPI
        if category == APP_MPI and rec.error:
            cut = max((t for t in deaths if rec.start < t <= end),
                      default=None)
            if cut is None:
                # deaths list may still be partial (instants scan saw
                # them all already, so this is the no-death case)
                intervals.setdefault(rank, []).append(iv)
                continue
            if cut > rec.start:
                intervals.setdefault(rank, []).append(
                    _Interval(rec.start, cut, APP_MPI, priority, order))
            intervals.setdefault(rank, []).append(
                _Interval(cut, end, FAILURE_DETECTION, _DETECT_PRIORITY,
                          order))
            continue
        intervals.setdefault(rank, []).append(iv)
    return intervals, marks, deaths


def _sweep(rank: int, items: List[_Interval],
           start: float, end: float) -> RankLedger:
    """Partition [start, end] over the covering intervals."""
    categories: Dict[str, float] = {}
    bounds = {start, end}
    for iv in items:
        bounds.add(max(start, iv.start))
        bounds.add(min(end, iv.end))
    cuts = sorted(bounds)
    opens = sorted(items, key=lambda iv: iv.start)
    # a heap of the intervals open at ``lo``, the winner (priority, then
    # depth, then first in ``opens``) on top; an expired interval is
    # dropped when it surfaces, not searched for at every cut
    active: List[Tuple[int, int, int, _Interval]] = []
    next_open = 0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        while next_open < len(opens) and opens[next_open].start <= lo:
            iv = opens[next_open]
            heappush(active, (-iv.priority, -iv.order, next_open, iv))
            next_open += 1
        while active and active[0][3].end <= lo:
            heappop(active)
        seg = hi - lo
        if not active:
            categories[IDLE] = categories.get(IDLE, 0.0) + seg
            continue
        winner = active[0][3]
        categories[winner.category] = (
            categories.get(winner.category, 0.0) + seg
        )
        winner.won += seg
    # flush congestion: move the slowdown seconds out of compute (the
    # extra time is caused by the data layer, not the application);
    # congestion inside a higher-priority window stays where it was won
    moved = 0.0
    for iv in items:
        if iv.category != COMPUTE or iv.congestion <= 0.0 or iv.won <= 0.0:
            continue
        span_len = iv.end - iv.start
        share = iv.congestion * (iv.won / span_len) if span_len > 0 else 0.0
        moved += min(share, iv.won)
    if moved > 0.0:
        categories[COMPUTE] = categories.get(COMPUTE, 0.0) - moved
        categories[FLUSH_CONGESTION] = (
            categories.get(FLUSH_CONGESTION, 0.0) + moved
        )
    return RankLedger(rank=rank, start=start, end=end, categories=categories)


def build_ledger(
    telemetry: Any,
    trace: Any = None,
    wall_time: Optional[float] = None,
) -> ProfileLedger:
    """Build and verify the per-rank ledger for one telemetered run.

    Raises :class:`ConservationError` if any rank's categories fail to
    sum to its makespan (an attribution bug, never a run property).
    """
    if telemetry is None or not getattr(telemetry, "enabled", False):
        raise ValueError("build_ledger needs an enabled Telemetry instance")
    intervals, marks, _deaths = _collect(telemetry)
    ranks: Dict[int, RankLedger] = {}
    for rank in sorted(marks):
        times = marks[rank]
        start, end = min(times), max(times)
        items = intervals.get(rank, [])
        rl = _sweep(rank, items, start, end)
        tol = _REL_TOL * max(1.0, abs(rl.makespan))
        if abs(rl.residual) > tol:
            raise ConservationError(
                f"rank {rank}: categories sum to {rl.accounted!r} but "
                f"makespan is {rl.makespan!r} (residual {rl.residual:g})"
            )
        ranks[rank] = rl
    if trace is None:
        trace = getattr(telemetry, "trace", None)
    dropped = int(getattr(trace, "dropped", 0) or 0) if trace is not None else 0
    window = getattr(trace, "dropped_window", None) if trace is not None else None
    return ProfileLedger(
        ranks=ranks,
        wall_time=wall_time,
        dropped=dropped,
        dropped_window=tuple(window) if window else None,
        data_path=_data_path_counters(telemetry),
    )


def _data_path_counters(telemetry: Any) -> Dict[str, float]:
    """Checkpoint data-path volume from the merged VeloC counters."""
    try:
        counters = telemetry.metrics_summary()["merged"]["counters"]
    except Exception:
        return {}
    total = float(counters.get("veloc.checkpoint.bytes", 0.0))
    dirty = float(counters.get("veloc.checkpoint.dirty_bytes", 0.0))
    novel = float(counters.get("veloc.checkpoint.novel_bytes", 0.0))
    if total <= 0:
        return {}
    out = {
        "checkpoint_bytes": total,
        "dirty_bytes": dirty,
        "novel_bytes": novel,
        "dirty_fraction": dirty / total,
    }
    if dirty > 0:
        out["dedup_ratio"] = 1.0 - novel / dirty
    return out


def format_ledger(ledger: ProfileLedger, per_rank: bool = True) -> str:
    """Aligned text table: one row per rank plus the mean row."""
    cats = [c for c in CATEGORIES
            if any(rl.get(c) > 0.0 for rl in ledger.ranks.values())]
    header = ["rank"] + cats + ["makespan"]
    rows: List[List[str]] = []
    if per_rank:
        for r, rl in sorted(ledger.ranks.items()):
            rows.append([str(r)]
                        + [f"{rl.get(c):.4f}" for c in cats]
                        + [f"{rl.makespan:.4f}"])
    mean = ledger.mean()
    rows.append(["mean"]
                + [f"{mean.get(c, 0.0):.4f}" for c in cats]
                + [f"{ledger.mean_makespan():.4f}"])
    lines = format_table(header, rows, rule=True, align=str.rjust)
    if ledger.wall_time is not None:
        lines.append(f"wall time: {ledger.wall_time:.4f} s")
    if ledger.dropped:
        lo, hi = ledger.dropped_window or (0.0, 0.0)
        lines.append(
            f"WARNING: {ledger.dropped} trace records dropped in "
            f"[{lo:.4f}, {hi:.4f}] -- attribution may be incomplete"
        )
    return "\n".join(lines)
