"""Observability across all three resilience layers.

The paper argues its layered-recovery claim from time breakdowns; this
package makes the reproduction's runs inspectable the same way:

- :mod:`repro.telemetry.metrics` -- counters, gauges, log-bucketed
  histograms; per-rank registries mergeable into a job view.
- :mod:`repro.telemetry.spans` -- span/instant tracing on simulated time
  with per-source parent/child nesting.
- :mod:`repro.telemetry.collector` -- the :class:`Telemetry` facade the
  layers instrument against; :data:`NULL_TELEMETRY` is the zero-cost
  disabled default every cluster starts with.
- :mod:`repro.telemetry.export` -- Chrome trace-event JSON (open in
  Perfetto or chrome://tracing), metrics JSON, schema validation, diffs.
- :mod:`repro.telemetry.timeline` -- plain-text failure timelines.
- ``python -m repro.telemetry`` -- run an experiment with telemetry on,
  export/validate traces, diff metrics between runs.

See docs/OBSERVABILITY.md for the hook points in each layer.
"""

from repro.telemetry.collector import NULL_TELEMETRY, Telemetry
from repro.telemetry.export import (
    chrome_trace_events,
    diff_metrics,
    metrics_to_dict,
    to_chrome_trace,
    track_for_source,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanRecord, Tracer
from repro.telemetry.timeline import failure_timeline, render_timeline

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "Tracer",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "metrics_to_dict",
    "write_metrics",
    "diff_metrics",
    "track_for_source",
    "render_timeline",
    "failure_timeline",
]
