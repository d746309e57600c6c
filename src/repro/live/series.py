"""Windowed time-series over the live trace stream.

:class:`WindowedSeries` folds observations into *tumbling windows* on
simulated time (window ``i`` covers ``[i*width, (i+1)*width)``), keeping
only the newest ``max_windows`` summaries plus a bounded reservoir of
raw samples for percentile queries -- memory stays O(windows + samples)
no matter how long the run is.

:class:`TimeSeriesAggregator` is a :meth:`~repro.sim.trace.Trace
.subscribe` listener that derives the standard live metrics from the
protocol record stream:

================================  ======================================
``flush_backlog_bytes``           bytes in flight on the VeloC servers
                                  (``flush_submit`` adds, ``flush_done``
                                  subtracts)
``checkpoint_overhead_pct``       100 * checkpoint seconds / seconds
                                  since that rank's previous checkpoint
``recovery_latency_s``            rank kill -> first data recovery
                                  (``recover`` / ``imr_restore``)
``dropped_records``               trace ring evictions at observation
                                  time
``alive_ranks`` / ``spare_ranks`` process liveness and spare-pool depth
================================  ======================================
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import Trace, TraceListener, TraceRecord
from repro.util.errors import ConfigError
from repro.vocabulary import (
    ATTEMPT_WORLD,
    KILL_KINDS,
    RECOVERY_DONE_KINDS,
    RESILIENT_COMM,
    world_rank,
)

#: the aggregator's standard global series
STANDARD_SERIES = (
    "flush_backlog_bytes",
    "checkpoint_overhead_pct",
    "recovery_latency_s",
    "dropped_records",
    "alive_ranks",
    "spare_ranks",
)

#: supported rule/query aggregations
AGGREGATIONS = (
    "last", "min", "max", "mean", "sum", "count",
    "p50", "p95", "p99", "growth",
)


@dataclass
class Window:
    """Summary of one tumbling window (never stores its observations)."""

    index: int
    t0: float
    count: int = 0
    total: float = 0.0
    vmin: float = math.inf
    vmax: float = -math.inf
    first: float = 0.0
    last: float = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.first = value
        self.count += 1
        self.total += value
        self.last = value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value


class WindowedSeries:
    """One named metric: bounded window ring + bounded sample reservoir."""

    def __init__(self, name: str, window_s: float = 1.0,
                 max_windows: int = 256, max_samples: int = 512,
                 max_briefs: int = 8) -> None:
        if window_s <= 0:
            raise ConfigError(f"window_s must be > 0, got {window_s}")
        self.name = name
        self.window_s = float(window_s)
        self.windows: Deque[Window] = deque(maxlen=max_windows)
        #: newest raw ``(time, value)`` pairs, for percentile queries
        self.samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)
        #: briefs of the records behind the newest observations -- the
        #: causal window an Alert carries
        self.briefs: Deque[str] = deque(maxlen=max_briefs)
        self.total_count = 0

    def window_index(self, t: float) -> int:
        return int(t // self.window_s)

    def observe(self, t: float, value: float,
                record: Optional[TraceRecord] = None) -> None:
        value = float(value)
        idx = self.window_index(t)
        if not self.windows or self.windows[-1].index != idx:
            self.windows.append(Window(index=idx, t0=idx * self.window_s))
        self.windows[-1].observe(value)
        self.samples.append((t, value))
        self.total_count += 1
        if record is not None:
            self.briefs.append(record.brief())

    # -- queries ----------------------------------------------------------

    def latest(self) -> Optional[float]:
        return self.windows[-1].last if self.windows else None

    def _windows_since(self, t_lo: float) -> List[Window]:
        # windows overlap the lookback when they end after t_lo
        return [w for w in self.windows if w.t0 + self.window_s > t_lo]

    def aggregate(self, agg: str, t: float,
                  lookback_s: float) -> Optional[float]:
        """``agg`` over observations in ``[t - lookback_s, t]``.

        Percentiles are computed over the raw sample reservoir (exact
        while total observations fit in ``max_samples``; nearest-rank
        over the newest samples after that); everything else folds the
        window summaries.  None when the lookback holds no data.
        """
        if agg not in AGGREGATIONS:
            raise ConfigError(
                f"unknown aggregation {agg!r}; known: {AGGREGATIONS}")
        t_lo = t - lookback_s
        if agg in ("p50", "p95", "p99"):
            vals = sorted(v for (st, v) in self.samples if st >= t_lo)
            if not vals:
                return None
            q = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[agg]
            rank = max(1, math.ceil(q * len(vals)))
            return vals[rank - 1]
        wins = self._windows_since(t_lo)
        if not wins:
            return 0.0 if agg == "count" else None
        if agg == "last":
            return wins[-1].last
        if agg == "min":
            return min(w.vmin for w in wins)
        if agg == "max":
            return max(w.vmax for w in wins)
        if agg == "sum":
            return sum(w.total for w in wins)
        if agg == "count":
            return float(sum(w.count for w in wins))
        if agg == "mean":
            n = sum(w.count for w in wins)
            return sum(w.total for w in wins) / n if n else None
        # growth: newest minus oldest observation inside the lookback
        return wins[-1].last - wins[0].first

    def recent_briefs(self) -> List[str]:
        return list(self.briefs)

    def spark_values(self, n: int = 16) -> List[float]:
        """Per-window ``last`` values of the newest ``n`` windows."""
        return [w.last for w in list(self.windows)[-n:]]


@dataclass
class RankLane:
    """Dashboard state of one simulated rank."""

    rank: int
    state: str = "alive"  # alive | dead | spare | recovered
    checkpoints: int = 0
    kills: int = 0
    last_kind: str = ""
    last_t: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank, "state": self.state,
            "checkpoints": self.checkpoints, "kills": self.kills,
            "last_kind": self.last_kind, "last_t": self.last_t,
        }


class TimeSeriesAggregator(TraceListener):
    """Trace listener maintaining the standard live series + rank lanes.

    A lane is a *world* rank: a layer record (``veloc.rank1``) lands on
    the process holding that slot when it was emitted, so a substituted
    spare's checkpoints are the spare's and the rank it replaced stays
    dead (:func:`repro.vocabulary.world_rank`).
    """

    def __init__(self, window_s: float = 1.0, max_windows: int = 256,
                 trace: Optional[Trace] = None) -> None:
        self.window_s = float(window_s)
        self.series: Dict[str, WindowedSeries] = {
            name: WindowedSeries(name, window_s=window_s,
                                 max_windows=max_windows)
            for name in STANDARD_SERIES
        }
        self.lanes: Dict[int, RankLane] = {}
        self.now = 0.0
        self.records_seen = 0
        self._trace = trace
        self._backlog_bytes = 0.0
        self._world_size = 0
        self._dead: set = set()
        self._spares = 0
        #: slot -> world rank map of the current resilient communicator
        self._members: Sequence[int] = ()
        #: open recovery episodes: kill time per (attempt-scoped) kill
        self._open_kills: List[Tuple[float, Optional[int]]] = []
        self._last_ckpt_t: Dict[str, float] = {}

    # -- the listener -------------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        self.records_seen += 1
        t = rec.time
        if t > self.now:
            self.now = t
        kind = rec.kind
        try:  # best-effort world-rank attribution (files come from outside)
            rank = rec.fields.get("rank")
            rank = (world_rank(rec.source, rec.fields, self._members)
                    if rank is None else int(rank))
        except (TypeError, ValueError):
            rank = None
        lane = None
        if rank is not None:
            lane = self.lanes.get(rank)
            if lane is None:
                lane = self.lanes[rank] = RankLane(rank)
            lane.last_kind = kind
            lane.last_t = t

        if kind == "flush_submit":
            self._backlog_bytes += float(rec.fields.get("nbytes", 0.0))
            self.series["flush_backlog_bytes"].observe(
                t, self._backlog_bytes, rec)
        elif kind == "flush_done":
            self._backlog_bytes = max(
                0.0, self._backlog_bytes - float(rec.fields.get("nbytes", 0.0)))
            self.series["flush_backlog_bytes"].observe(
                t, self._backlog_bytes, rec)
        elif kind == "checkpoint":
            if lane is not None:
                lane.checkpoints += 1
                if lane.state == "dead":
                    lane.state = "recovered"
            seconds = rec.fields.get("seconds")
            prev = self._last_ckpt_t.get(rec.source)
            self._last_ckpt_t[rec.source] = t
            if seconds is not None and prev is not None and t > prev:
                self.series["checkpoint_overhead_pct"].observe(
                    t, 100.0 * float(seconds) / (t - prev), rec)
        elif kind in KILL_KINDS:
            if lane is not None:
                lane.state = "dead"
                lane.kills += 1
            if rank is not None:
                self._dead.add(rank)
            self._open_kills.append((t, rank))
            self._observe_alive(t, rec)
        elif kind == "rank_dead":
            if rank is not None and rank not in self._dead:
                self._dead.add(rank)
                if lane is not None and lane.state != "dead":
                    lane.state = "dead"
                self._observe_alive(t, rec)
        elif kind in RECOVERY_DONE_KINDS:
            if lane is not None and lane.state == "dead":
                lane.state = "recovered"
            for t_kill, _ in self._open_kills:
                self.series["recovery_latency_s"].observe(t, t - t_kill, rec)
            self._open_kills.clear()
        elif kind == "comm_create":
            members = rec.fields.get("members") or []
            if rec.source.startswith(RESILIENT_COMM):
                self._members = members
            if len(members) > self._world_size:
                self._world_size = len(members)
                self._observe_alive(t, rec)
            if ATTEMPT_WORLD in rec.source and members:
                # a relaunch: every rank of the new attempt is alive again
                self._dead.clear()
                for m in members:
                    lane = self.lanes.setdefault(int(m), RankLane(int(m)))
                    if lane.state == "dead":
                        lane.state = "recovered"
                self._observe_alive(t, rec)
        elif kind == "role":
            role = str(rec.fields.get("role", "")).upper()
            if lane is not None:
                if role == "SPARE":
                    lane.state = "spare"
                elif role == "RECOVERED":
                    lane.state = "recovered"
                elif lane.state in ("spare",):
                    lane.state = "alive"
            if role == "SPARE":
                self._spares += 1
                self.series["spare_ranks"].observe(t, self._spares, rec)
        elif kind == "spare_activated":
            self._spares = max(0, self._spares - 1)
            self.series["spare_ranks"].observe(t, self._spares, rec)
            spare = rec.fields.get("spare")
            if spare is not None:
                lane = self.lanes.setdefault(int(spare), RankLane(int(spare)))
                lane.state = "recovered"
                lane.last_kind, lane.last_t = kind, t

        drops = self._current_drops()
        if drops != (self.series["dropped_records"].latest() or 0.0):
            self.series["dropped_records"].observe(t, drops, rec)

    # -- helpers ------------------------------------------------------------

    def _current_drops(self) -> float:
        if self._trace is None:
            return 0.0
        return float(self._trace.dropped)

    def _observe_alive(self, t: float,
                       rec: Optional[TraceRecord] = None) -> None:
        if self._world_size <= 0:
            return
        alive = max(0, self._world_size - len(self._dead))
        self.series["alive_ranks"].observe(t, alive, rec)

    @property
    def open_recoveries(self) -> int:
        """Kills whose data recovery has not completed yet."""
        return len(self._open_kills)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state (the export/check surface)."""
        out: Dict[str, Any] = {
            "now": self.now,
            "records_seen": self.records_seen,
            "open_recoveries": self.open_recoveries,
            "series": {},
            "lanes": {str(r): lane.to_dict()
                      for r, lane in sorted(self.lanes.items())},
        }
        for name, series in self.series.items():
            out["series"][name] = {
                "latest": series.latest(),
                "count": series.total_count,
                "max": series.aggregate("max", self.now, math.inf)
                if series.total_count else None,
            }
        return out
