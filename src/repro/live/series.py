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
``checkpoint_share_pct``          100 * checkpoint seconds / seconds
                                  since that source's previous checkpoint
``kill_to_restore_s``             rank kill -> first data recovery
                                  (``recover`` / ``imr_restore``), one
                                  sample per failure (ranks that crash
                                  of an open one join it)
``dropped_records``               trace ring evictions at observation
                                  time
``alive_ranks`` / ``spare_ranks`` living processes of the world, and
                                  living spares no repair has activated
================================  ======================================
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.monitor.state import ProtocolStateTracker
from repro.sim.trace import Trace, TraceListener, TraceRecord
from repro.util.errors import ConfigError
from repro.vocabulary import ATTEMPT_WORLD, RECOVERY_DONE_KINDS

#: the aggregator's standard global series
STANDARD_SERIES = (
    "flush_backlog_bytes",
    "checkpoint_share_pct",
    "kill_to_restore_s",
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


class TimeSeriesAggregator(TraceListener):
    """Trace listener maintaining the standard live series.

    Who is alive, an idle spare or still failed is read off :attr:`state`,
    a :class:`repro.monitor.state.ProtocolStateTracker` fed every record
    (the dashboard's rank strip draws it); this listener only counts.
    """

    def __init__(self, window_s: float = 1.0, max_windows: int = 256,
                 trace: Optional[Trace] = None) -> None:
        self.window_s = float(window_s)
        self.series: Dict[str, WindowedSeries] = {
            name: WindowedSeries(name, window_s=window_s,
                                 max_windows=max_windows)
            for name in STANDARD_SERIES
        }
        self.now = 0.0
        self.records_seen = 0
        self._trace = trace
        self.state = ProtocolStateTracker()
        self._backlog_bytes = 0.0
        self._last_ckpt_t: Dict[str, float] = {}

    # -- the listener -------------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        self.records_seen += 1
        t = rec.time
        if t > self.now:
            self.now = t
        kind = rec.kind
        state = self.state
        if kind in RECOVERY_DONE_KINDS:
            # one sample per failure the record closes, read before the
            # tracker closes them
            for kill in state.failures:
                self.series["kill_to_restore_s"].observe(t, t - kill.time, rec)
        world = state.world
        state.feed(rec)

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
            seconds = rec.fields.get("seconds")
            prev = self._last_ckpt_t.get(rec.source)
            self._last_ckpt_t[rec.source] = t
            if seconds is not None and prev is not None and t > prev:
                self.series["checkpoint_share_pct"].observe(
                    t, 100.0 * float(seconds) / (t - prev), rec)
        elif kind == "rank_dead":
            st = state.ranks.get(rec.fields.get("rank"))
            if st is not None and st.dead is rec:  # a death, not a repeat
                self._observe_alive(t, rec)
                if st.role == "SPARE":  # a spare left the pool
                    self._observe_spares(t, rec)
        elif kind == "comm_create" and ATTEMPT_WORLD in rec.source:
            # a (re)launch: every rank of it is alive; one that sizes the
            # world anew is observed once more, as the new size
            if len(state.world) > len(world):
                self._observe_alive(t, rec)
            self._observe_alive(t, rec)
        elif kind == "spare_activated" or (
                kind == "role" and rec.fields.get("role") == "SPARE"):
            self._observe_spares(t, rec)

        drops = self._current_drops()
        if drops != (self.series["dropped_records"].latest() or 0.0):
            self.series["dropped_records"].observe(t, drops, rec)

    # -- helpers ------------------------------------------------------------

    def _current_drops(self) -> float:
        if self._trace is None:
            return 0.0
        return float(self._trace.dropped)

    def _observe_alive(self, t: float, rec: TraceRecord) -> None:
        world, ranks = self.state.world, self.state.ranks
        if world:
            alive = sum(1 for w in world if w not in ranks or ranks[w].alive)
            self.series["alive_ranks"].observe(t, alive, rec)

    def _observe_spares(self, t: float, rec: TraceRecord) -> None:
        spares = sum(st.spare for st in self.state.ranks.values())
        self.series["spare_ranks"].observe(t, spares, rec)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state (the export/check surface)."""
        out: Dict[str, Any] = {
            "now": self.now,
            "records_seen": self.records_seen,
            "open_recoveries": len(self.state.failures),
            "series": {},
        }
        for name, series in self.series.items():
            out["series"][name] = {
                "latest": series.latest(),
                "count": series.total_count,
                "max": series.aggregate("max", self.now, math.inf)
                if series.total_count else None,
            }
        return out
