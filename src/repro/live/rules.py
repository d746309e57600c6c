"""Declarative SLO/alert rules over the live time-series.

A rule is *data*: it names a metric, an aggregation over a lookback
window, a comparison that must **hold** (the SLO), and how long a
violation must persist (``for_s``) before a structured :class:`Alert`
fires.  Rules live in JSON files::

    {"rules": [
      {"name": "recovery-latency-slo",
       "metric": "kill_to_restore_s", "agg": "p99",
       "op": "<=", "threshold": 5.0,
       "window_s": 1e9, "for_s": 0, "severity": "critical",
       "description": "p99 kill-to-restore time within budget"},
      {"name": "no-invariant-violations",
       "metric": "invariant_violations", "agg": "last",
       "op": "==", "threshold": 0, "severity": "critical"},
      {"name": "flush-backlog-drains",
       "metric": "flush_backlog_bytes", "agg": "growth",
       "op": "<=", "threshold": 2e9, "window_s": 50, "for_s": 20,
       "severity": "warning",
       "description": "sustained backlog growth means flushes never drain"}
    ]}

The :class:`AlertEngine` evaluates every rule at each tumbling-window
boundary of the simulated clock (plus once at end of stream).  An alert
fires at most once per violation episode: after firing, the rule
re-arms only when it evaluates true again.  Fired alerts land in
``RunReport.alerts``; ``python -m repro.live check`` exits 1 when one
fires -- the CI-fails-the-run shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.live.series import AGGREGATIONS, TimeSeriesAggregator
from repro.sim.trace import Trace, TraceListener, TraceRecord
from repro.util.errors import ConfigError

#: rules-file schema version
RULES_SCHEMA = 1

SEVERITIES = ("info", "warning", "critical")

OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: synthetic metrics served by providers, not the aggregator
PROVIDER_METRICS = ("invariant_violations",)


@dataclass(frozen=True)
class AlertRule:
    """One SLO: ``agg(metric over window_s) op threshold`` must hold."""

    name: str
    metric: str
    op: str
    threshold: float
    agg: str = "last"
    #: lookback the aggregation covers (simulated seconds)
    window_s: float = 60.0
    #: how long the violation must persist before the alert fires
    for_s: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("alert rule needs a name")
        if self.op not in OPS:
            raise ConfigError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"known: {sorted(OPS)}")
        if self.agg not in AGGREGATIONS:
            raise ConfigError(
                f"rule {self.name!r}: unknown agg {self.agg!r}; "
                f"known: {AGGREGATIONS}")
        if self.severity not in SEVERITIES:
            raise ConfigError(
                f"rule {self.name!r}: unknown severity {self.severity!r}; "
                f"known: {SEVERITIES}")
        if self.window_s <= 0:
            raise ConfigError(f"rule {self.name!r}: window_s must be > 0")
        if self.for_s < 0:
            raise ConfigError(f"rule {self.name!r}: for_s must be >= 0")

    def holds(self, value: Optional[float]) -> bool:
        """None (no data in the lookback) holds vacuously."""
        if value is None:
            return True
        return OPS[self.op](value, self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "metric": self.metric, "agg": self.agg,
            "op": self.op, "threshold": self.threshold,
            "window_s": self.window_s, "for_s": self.for_s,
            "severity": self.severity, "description": self.description,
        }


@dataclass
class Alert:
    """One fired rule, with the causal record window it derives from."""

    rule: str
    metric: str
    severity: str
    time: float
    value: Optional[float]
    threshold: float
    op: str
    agg: str
    #: when the SLO first evaluated false in this episode
    since: float = 0.0
    description: str = ""
    #: briefs of the records behind the violating observations
    records: List[str] = field(default_factory=list)

    def render(self) -> str:
        val = "no-data" if self.value is None else f"{self.value:.6g}"
        return (f"[{self.severity}] {self.rule} at t={self.time:.6f}: "
                f"{self.agg}({self.metric}) = {val}, SLO requires "
                f"{self.op} {self.threshold:g}"
                + (f" ({self.description})" if self.description else ""))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Alert":
        return cls(
            rule=doc["rule"], metric=doc["metric"],
            severity=doc.get("severity", "warning"),
            time=float(doc.get("time", 0.0)), value=doc.get("value"),
            threshold=float(doc.get("threshold", 0.0)),
            op=doc.get("op", "<="), agg=doc.get("agg", "last"),
            since=float(doc.get("since", 0.0)),
            description=doc.get("description", ""),
            records=list(doc.get("records", [])),
        )


@dataclass
class RuleSet:
    rules: List[AlertRule] = field(default_factory=list)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": RULES_SCHEMA,
                "rules": [r.to_dict() for r in self.rules]}


_RULE_KEYS = {"name", "metric", "agg", "op", "threshold", "window_s",
              "for_s", "severity", "description"}


def parse_rules(doc: Any, origin: str = "<rules>") -> RuleSet:
    """Build a :class:`RuleSet` from a parsed JSON document (an object
    with a ``rules`` list, or a bare list)."""
    if isinstance(doc, dict):
        items = doc.get("rules")
        if items is None:
            raise ConfigError(f"{origin}: no 'rules' key")
    elif isinstance(doc, list):
        items = doc
    else:
        raise ConfigError(f"{origin}: expected an object or list of rules")
    rules: List[AlertRule] = []
    seen = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigError(f"{origin}: rule #{i} is not an object")
        unknown = set(item) - _RULE_KEYS
        if unknown:
            raise ConfigError(
                f"{origin}: rule #{i} has unknown key(s) {sorted(unknown)}")
        missing = {"name", "metric", "op", "threshold"} - set(item)
        if missing:
            raise ConfigError(
                f"{origin}: rule #{i} missing key(s) {sorted(missing)}")
        rule = AlertRule(
            name=str(item["name"]),
            metric=str(item["metric"]),
            op=str(item["op"]),
            threshold=float(item["threshold"]),
            agg=str(item.get("agg", "last")),
            window_s=float(item.get("window_s", 60.0)),
            for_s=float(item.get("for_s", 0.0)),
            severity=str(item.get("severity", "warning")),
            description=str(item.get("description", "")),
        )
        if rule.name in seen:
            raise ConfigError(f"{origin}: duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return RuleSet(rules)


def load_rules(path: str) -> RuleSet:
    """Load and validate a rules file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read rules file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc.msg})") from exc
    return parse_rules(doc, origin=path)


class AlertEngine:
    """Evaluates a rule set against an aggregator's series.

    ``providers`` serves synthetic metrics (currently
    ``invariant_violations`` from an attached monitor suite) that have
    no time-series of their own.
    """

    def __init__(
        self,
        rules: RuleSet,
        aggregator: TimeSeriesAggregator,
        providers: Optional[Dict[str, Callable[[], float]]] = None,
    ) -> None:
        self.rules = rules
        self.aggregator = aggregator
        self.providers = dict(providers or {})
        for rule in rules:
            if (rule.metric not in aggregator.series
                    and rule.metric not in self.providers
                    and rule.metric not in PROVIDER_METRICS):
                raise ConfigError(
                    f"rule {rule.name!r}: unknown metric {rule.metric!r}; "
                    f"known: {sorted(aggregator.series)} "
                    f"+ {sorted(set(self.providers) | set(PROVIDER_METRICS))}")
        self.alerts: List[Alert] = []
        self._since: Dict[str, Optional[float]] = {r.name: None for r in rules}
        self._fired: Dict[str, bool] = {r.name: False for r in rules}

    def _value(self, rule: AlertRule, t: float) -> Optional[float]:
        provider = self.providers.get(rule.metric)
        if provider is not None:
            return float(provider())
        if rule.metric in PROVIDER_METRICS:
            return None  # declared but not wired (no monitor attached)
        series = self.aggregator.series[rule.metric]
        return series.aggregate(rule.agg, t, rule.window_s)

    def evaluate(self, t: float) -> List[Alert]:
        """Evaluate every rule at simulated time ``t``; returns alerts
        newly fired by this evaluation."""
        fired_now: List[Alert] = []
        for rule in self.rules:
            value = self._value(rule, t)
            if rule.holds(value):
                self._since[rule.name] = None
                self._fired[rule.name] = False
                continue
            since = self._since[rule.name]
            if since is None:
                since = self._since[rule.name] = t
            if self._fired[rule.name] or (t - since) < rule.for_s:
                continue
            self._fired[rule.name] = True
            series = self.aggregator.series.get(rule.metric)
            alert = Alert(
                rule=rule.name, metric=rule.metric, severity=rule.severity,
                time=t, value=value, threshold=rule.threshold, op=rule.op,
                agg=rule.agg, since=since, description=rule.description,
                records=series.recent_briefs() if series is not None else [],
            )
            self.alerts.append(alert)
            fired_now.append(alert)
        return fired_now


class LiveSession(TraceListener):
    """Aggregator + alert engine bundled behind one trace listener.

    The harness creates one per run when rules (or live series) are
    wanted: ``session.attach(trace)`` during the run, then
    ``session.finish()`` after the engine drains returns the fired
    alerts.  What a fired alert *costs* is the caller's policy: the
    harness files it in ``RunReport.alerts``, the CLI exits 1.
    """

    def __init__(
        self,
        rules: Optional[RuleSet] = None,
        window_s: float = 1.0,
        monitor: Any = None,
    ) -> None:
        self.aggregator = TimeSeriesAggregator(window_s=window_s)
        providers: Dict[str, Callable[[], float]] = {}
        if monitor is not None:
            providers["invariant_violations"] = (
                lambda: float(len(monitor.violations)))
        self.engine = (
            AlertEngine(rules, self.aggregator, providers)
            if rules is not None and len(rules) else None
        )
        self._last_window: Optional[int] = None
        self._finished = False

    @property
    def alerts(self) -> List[Alert]:
        return self.engine.alerts if self.engine is not None else []

    def feed(self, rec: TraceRecord) -> None:
        agg = self.aggregator
        agg.feed(rec)
        if self.engine is None:
            return
        widx = int(rec.time // agg.window_s)
        if self._last_window is not None and widx > self._last_window:
            # evaluate at the boundary the stream just crossed, so the
            # `for_s` persistence clock ticks on simulated time
            self.engine.evaluate(widx * agg.window_s)
        if self._last_window is None or widx > self._last_window:
            self._last_window = widx

    def attach(self, trace: Trace) -> "LiveSession":
        # the drop series reads the trace's counters, held records included
        self.aggregator._trace = trace
        return super().attach(trace)

    def finish(self, t: Optional[float] = None) -> List[Alert]:
        """End of stream: final evaluation, then detach."""
        if self._finished:
            return self.alerts
        self._finished = True
        if self.engine is not None:
            self.engine.evaluate(max(self.aggregator.now,
                                     t if t is not None else 0.0))
        self.detach()
        return self.alerts
