"""The telemetry facade every layer talks to.

One :class:`Telemetry` object serves a whole cluster/job.  It bundles a
:class:`~repro.telemetry.spans.Tracer` (span/instant recording on
simulated time), a job-level :class:`~repro.telemetry.metrics.MetricsRegistry`,
and one registry per simulated rank (merged on demand).

**Zero-cost when disabled** is a hard requirement: the simulator's hot
paths run with :data:`NULL_TELEMETRY`, whose ``enabled`` flag is False.
Instrumentation sites follow one of two patterns::

    with tel.span(f"rank{r}", "veloc.checkpoint", version=v):   # returns a
        ...                                    # shared no-op CM if disabled

    if tel.enabled:                            # guard everything heavier
        tel.rank_metrics(r).inc("veloc.checkpoint.bytes", nbytes)

Disabled calls never allocate (``span`` hands back the module-level
:data:`~repro.telemetry.spans.NULL_SPAN`), never touch the clock, and
never grow any list, so ``benchmarks/test_simulator_performance.py``
stays flat.  An enabled span allocates one
slotted :class:`~repro.telemetry.spans.SpanRecord` (which is its own
context manager) holding the ``fields`` dict the call already built, and
costs two list appends and one pop besides.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import NULL_SPAN, SpanRecord, Tracer, _NullSpan


class Telemetry:
    """Metrics + spans for one job; disabled instances are no-ops."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer()
        #: job-level metrics (server backlogs, spare-pool depth, revokes)
        self.metrics = MetricsRegistry()
        self._rank_metrics: Dict[int, MetricsRegistry] = {}
        #: the legacy event trace of the instrumented run, when the
        #: harness recorded one (exporters interleave it with spans)
        self.trace: Optional[Any] = None

    # -- wiring ---------------------------------------------------------

    def bind(self, clock: Any) -> None:
        """Attach the simulated clock (called by the cluster)."""
        if self.enabled:
            self.tracer.bind(clock)

    # -- spans ----------------------------------------------------------

    def span(self, source: str, name: str,
             **fields: Any) -> Union[SpanRecord, _NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        # built here, not through ``tracer.span``: one call and one
        # ``**fields`` repack fewer for each of a run's thousands of spans
        return SpanRecord(self.tracer, source, name, fields)

    def instant(self, source: str, name: str,
                **fields: Any) -> Optional[SpanRecord]:
        if not self.enabled:
            return None
        return self.tracer.instant(source, name, **fields)

    # -- metrics --------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.metrics.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.observe(name, value)

    def rank_metrics(self, rank: int) -> MetricsRegistry:
        """The per-rank registry (created on first use).

        Callers on performance-relevant paths must guard with
        ``tel.enabled`` -- this accessor allocates.
        """
        reg = self._rank_metrics.get(rank)
        if reg is None:
            reg = self._rank_metrics[rank] = MetricsRegistry()
        return reg

    @property
    def ranks(self) -> Dict[int, MetricsRegistry]:
        return dict(self._rank_metrics)

    def merged_metrics(self) -> MetricsRegistry:
        """Job-level registry folded with every rank registry (counters
        sum, gauges keep maxima, histograms merge bucket-wise)."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for reg in self._rank_metrics.values():
            merged.merge(reg)
        return merged

    def metrics_summary(self) -> Dict:
        """JSON-ready snapshot: merged view plus the per-rank breakdown."""
        return {
            "merged": self.merged_metrics().snapshot(),
            "job": self.metrics.snapshot(),
            "ranks": {
                str(r): reg.snapshot()
                for r, reg in sorted(self._rank_metrics.items())
            },
        }

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.reset()
        self._rank_metrics.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state} spans={len(self.tracer)}>"


#: the shared disabled instance components default to
NULL_TELEMETRY = Telemetry(enabled=False)
