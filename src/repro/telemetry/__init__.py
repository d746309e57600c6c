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
  Perfetto or chrome://tracing), metrics JSON, schema validation.
- ``python -m repro.telemetry`` -- run an experiment with telemetry on,
  export and validate traces.  Two runs' ``metrics.json`` are compared
  by ``python -m repro.report diff``, the one budget gate.

See docs/OBSERVABILITY.md for the hook points in each layer.
"""

from repro.telemetry.collector import NULL_TELEMETRY, Telemetry
from repro.telemetry.export import (
    chrome_trace_events,
    metrics_to_dict,
    to_chrome_trace,
    track_for_source,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.spans import SpanRecord, Tracer

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
    "track_for_source",
]
