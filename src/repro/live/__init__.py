"""repro.live: streaming observability over the trace layer.

The fifth observability layer (telemetry -> monitor -> profile ->
report -> **live**): where the others explain a run after the fact,
this one watches it happen.  Three pieces, all driven by
:meth:`repro.sim.trace.Trace.subscribe`:

- :mod:`repro.live.series` -- windowed time-series (tumbling windows on
  simulated time, bounded memory) deriving flush backlog, checkpoint
  overhead, recovery latency, liveness and drop counts from the
  protocol record stream;
- :mod:`repro.live.rules` -- declarative SLO/alert rules evaluated over
  those series as the run executes; fired :class:`Alert` objects land
  in ``RunReport.alerts`` (``python -m repro.live check`` exits 1 on one);
- :mod:`repro.live.dashboard` / :mod:`repro.live.openmetrics` -- the
  presentation edges: live TTY frames (``python -m repro.live tail``)
  and OpenMetrics text snapshots (``... export``).
"""

from repro.live.dashboard import (
    CampaignView,
    render_campaign_frame,
    render_trace_frame,
    sparkline,
)
from repro.live.openmetrics import (
    Family,
    from_aggregator,
    from_metrics_snapshot,
    parse_openmetrics,
    render_openmetrics,
)
from repro.live.rules import (
    Alert,
    AlertEngine,
    AlertRule,
    LiveSession,
    RuleSet,
    load_rules,
    parse_rules,
)
from repro.live.series import (
    AGGREGATIONS,
    STANDARD_SERIES,
    RankLane,
    TimeSeriesAggregator,
    WindowedSeries,
)

__all__ = [
    "AGGREGATIONS",
    "STANDARD_SERIES",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "CampaignView",
    "Family",
    "LiveSession",
    "RankLane",
    "RuleSet",
    "TimeSeriesAggregator",
    "WindowedSeries",
    "from_aggregator",
    "from_metrics_snapshot",
    "load_rules",
    "parse_openmetrics",
    "parse_rules",
    "render_campaign_frame",
    "render_openmetrics",
    "render_trace_frame",
    "sparkline",
]
