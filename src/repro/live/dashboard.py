"""Live dashboard frames: pure text renderers, no terminal control.

Two frame builders cover the two JSONL streams a running campaign
produces:

- :func:`render_campaign_frame` folds :mod:`repro.parallel.progress`
  events (``campaign_start`` / ``cell_done`` / ``campaign_end``) into a
  progress bar, cache/worker stats, ETA, and a lane of recent cells;
- :func:`render_trace_frame` renders a
  :class:`~repro.live.series.TimeSeriesAggregator` and a
  :class:`~repro.monitor.state.ProtocolStateTracker` fed the same
  flight-recorder stream as a rank strip, metric sparklines, and the
  currently-firing alerts.

Both return a complete frame as one string; the CLI (``repro.live
tail``) handles clearing/redrawing, and CI captures the final frame as
an artifact with ``--once --out``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.live.rules import Alert
from repro.live.series import TimeSeriesAggregator
from repro.monitor.state import ProtocolStateTracker, RankState

#: eighth-block ramp used for sparklines
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: the rank strip's glyph per Fenix role (a dead rank is ✕, any other
#: living one ●)
ROLE_GLYPHS = {"SPARE": "○", "RECOVERED": "◐"}

SEVERITY_MARKS = {"info": "i", "warning": "!", "critical": "!!"}


def rank_glyph(st: RankState) -> str:
    """One rank's place in the strip, read off its protocol state."""
    if not st.alive:
        return "✕"
    return ROLE_GLYPHS.get(st.role, "●")


def sparkline(values: List[float], width: int = 16) -> str:
    """Unicode sparkline of the newest ``width`` values (min-max scaled)."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return SPARK_CHARS[0] * len(vals)
    out = []
    for v in vals:
        i = int((v - lo) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[max(0, min(i, len(SPARK_CHARS) - 1))])
    return "".join(out)


def progress_bar(frac: float, width: int = 24) -> str:
    frac = max(0.0, min(1.0, frac))
    filled = int(round(frac * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "--"
    if value == 0:
        return "0"
    mag = abs(value)
    if mag >= 1e6 or mag < 1e-3:
        return f"{value:.3g}"
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.3f}"


class CampaignView:
    """Folds a progress-event stream into renderable campaign state."""

    def __init__(self, max_recent: int = 8) -> None:
        self.total = 0
        self.completed = 0
        self.jobs = 1
        self.cache_hits = 0
        self.cache_misses = 0
        self.failed = 0
        self.eta_s: Optional[float] = None
        self.utilization: Optional[float] = None
        self.done = False
        self.host_seconds: Optional[float] = None
        self.alerts_total = 0
        self.recent: Deque[Dict[str, Any]] = deque(maxlen=max_recent)
        self.cell_seconds: Deque[float] = deque(maxlen=64)
        self.events_seen = 0

    def feed(self, event: Dict[str, Any]) -> None:
        self.events_seen += 1
        name = event.get("event")
        if name == "campaign_start":
            self.total = int(event.get("total", 0))
            self.jobs = int(event.get("jobs", 1))
        elif name == "cell_done":
            self.total = int(event.get("total", self.total))
            self.completed = int(event.get("completed", self.completed))
            self.cache_hits = int(event.get("cache_hits", self.cache_hits))
            self.cache_misses = int(
                event.get("cache_misses", self.cache_misses))
            self.eta_s = event.get("eta_s")
            self.utilization = event.get("utilization")
            self.alerts_total += int(event.get("alerts", 0) or 0)
            if event.get("state") == "failed":
                self.failed += 1
            self.recent.append(event)
            self.cell_seconds.append(float(event.get("host_seconds", 0.0)))
        elif name == "campaign_end":
            self.done = True
            self.total = int(event.get("total", self.total))
            self.failed = int(event.get("failed", self.failed))
            self.host_seconds = event.get("host_seconds")

    def replay(self, events: Any) -> "CampaignView":
        for event in events:
            self.feed(event)
        return self


def render_campaign_frame(view: CampaignView, width: int = 78) -> str:
    """One frame of the campaign dashboard (progress-JSONL mode)."""
    lines = []
    frac = view.completed / view.total if view.total else 0.0
    status = "done" if view.done else "running"
    eta = f"eta {view.eta_s:.0f}s" if view.eta_s is not None else "eta --"
    if view.done and view.host_seconds is not None:
        eta = f"took {view.host_seconds:.1f}s"
    lines.append(
        f"campaign {status}  {progress_bar(frac)} "
        f"{view.completed}/{view.total}  {eta}")
    util = (f"{view.utilization:.0%}"
            if view.utilization is not None else "--")
    lines.append(
        f"cache {view.cache_hits} hit / {view.cache_misses} miss"
        f"  jobs {view.jobs}  busy {util}"
        + (f"  failed {view.failed}" if view.failed else "")
        + (f"  alerts {view.alerts_total}" if view.alerts_total else ""))
    if view.cell_seconds:
        lines.append("cell host-seconds  "
                     + sparkline(list(view.cell_seconds), width=32)
                     + f"  last {_fmt(view.cell_seconds[-1])}s")
    if view.recent:
        lines.append("recent cells:")
        for ev in view.recent:
            label = str(ev.get("label") or f"cell {ev.get('index')}")
            mark = {"cached": "=", "fresh": "+", "failed": "x"}.get(
                str(ev.get("state")), "?")
            extra = ""
            if ev.get("alerts"):
                extra = f"  !{ev['alerts']} alert(s)"
            lines.append(f"  {mark} {label[: width - 16]}"
                         f"  {_fmt(ev.get('host_seconds'))}s{extra}")
    if not view.events_seen:
        lines.append("(waiting for progress events...)")
    return "\n".join(line[:width] for line in lines)


def render_trace_frame(
    agg: TimeSeriesAggregator,
    tracker: ProtocolStateTracker,
    alerts: Optional[List[Alert]] = None,
    meta: Optional[Dict[str, Any]] = None,
    width: int = 78,
) -> str:
    """One frame of the run dashboard (flight-recorder / trace mode)."""
    lines = [
        f"t={agg.now:.3f}s  records={agg.records_seen}"
        f"  open recoveries={agg.open_recoveries}"
    ]
    if meta:
        dropped = int(meta.get("dropped") or 0)
        if dropped:
            lines.append(f"drops: ring={dropped}"
                         f" (window {meta.get('dropped_window')})")
    if tracker.ranks:
        ranks = [tracker.ranks[r] for r in sorted(tracker.ranks)]
        lines.append(f"ranks [{''.join(map(rank_glyph, ranks))}]  "
                     "(● alive ✕ dead ○ spare ◐ recovered)")
        stopped = [st for st in ranks if st.describe() != "RUNNING"]
        for st in sorted(stopped, key=lambda st: st.alive)[:6]:
            ckpt = (f"v{st.last_checkpoint}"
                    if st.last_checkpoint is not None else "-")
            lines.append(
                f"  rank {st.world_rank}: {st.describe()}, "
                f"{st.role or '-'}, last ckpt {ckpt}, "
                f"last restore {st.last_recover or '-'}")
    name_w = max(len(n) for n in agg.series)
    for name, series in agg.series.items():
        if not series.total_count:
            continue
        lines.append(
            f"{name.ljust(name_w)}  {sparkline(series.spark_values(24), 24)}"
            f"  last {_fmt(series.latest())}"
            f"  n={series.total_count}")
    if alerts:
        lines.append(f"alerts ({len(alerts)}):")
        for alert in alerts[-6:]:
            mark = SEVERITY_MARKS.get(alert.severity, "!")
            lines.append(f"  {mark} {alert.render()[: width - 5]}")
    else:
        lines.append("alerts: none")
    return "\n".join(line[:width] for line in lines)
