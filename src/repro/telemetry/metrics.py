"""Metric primitives: counters, gauges, log-bucketed histograms.

A :class:`MetricsRegistry` owns named metrics for one scope (the job, or
one simulated rank).  Registries are mergeable -- the harness keeps one
registry per rank and folds them into a job-level view at the end of a
run -- and resettable without invalidating handles components already
hold (the restart case: a relaunched job starts its counters over, but
live :class:`Counter` objects keep working).

Everything here is plain arithmetic on plain objects: no clock, no
simulator imports, so the package can be loaded by the lowest layers
without cycles.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional

from repro.util.errors import ConfigError


class Counter:
    """Monotonically increasing total (bytes checkpointed, revokes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """Last-written level plus its high-water mark (backlog, pool depth)."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.high:
            self.high = self.value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def reset(self) -> None:
        self.value = 0.0
        self.high = 0.0


class Histogram:
    """Log-bucketed distribution (latencies, sizes, fan-outs).

    Bucket ``i`` holds observations in ``(base**(i-1), base**i]``; values
    at or below zero land in a dedicated underflow bucket (key ``None``).
    Log bucketing keeps the footprint tiny for values spanning many
    orders of magnitude (microsecond latencies to multi-second flushes).
    """

    __slots__ = ("name", "base", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, base: float = 2.0) -> None:
        if base <= 1.0:
            raise ConfigError(f"histogram {name}: base must exceed 1, got {base}")
        self.name = name
        self.base = float(base)
        #: exponent -> count; key None is the <=0 underflow bucket
        self.buckets: Dict[Optional[int], int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def bucket_index(self, value: float) -> Optional[int]:
        if value <= 0.0:
            return None
        return math.ceil(math.log(value, self.base) - 1e-12)

    def observe(self, value: float) -> None:
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.base != self.base:
            raise ConfigError(
                f"histogram {self.name}: cannot merge base {other.base} "
                f"into base {self.base}"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def reset(self) -> None:
        self.buckets.clear()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "base": self.base,
            # JSON keys must be strings; None -> "underflow"
            "buckets": {
                ("underflow" if k is None else str(k)): v
                for k, v in sorted(
                    self.buckets.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)
                )
            },
        }


class MetricsRegistry:
    """Named metrics for one scope; get-or-create accessors.

    Merge semantics (cross-rank aggregation): counters add, gauges keep
    the maximum level/high-water mark, histograms add bucket-wise.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, base: float = 2.0) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, base=base)
        return metric

    def _check_free(self, name: str, own: Dict) -> None:
        """A name can only clash with another type when it is created."""
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ConfigError(f"metric {name!r} already registered "
                                  "with a different type")

    # -- convenience ----------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- aggregation ----------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (cross-rank aggregation)."""
        for name, c in other._counters.items():
            self.counter(name).value += c.value
        for name, g in other._gauges.items():
            mine = self.gauge(name)
            mine.value = max(mine.value, g.value)
            mine.high = max(mine.high, g.high)
        for name, h in other._histograms.items():
            self.histogram(name, base=h.base).merge(h)

    def reset(self) -> None:
        """Zero every metric, keeping the objects live (restart semantics:
        components that cached a Counter keep charging the same one)."""
        for family in (self._counters, self._gauges, self._histograms):
            for metric in family.values():
                metric.reset()

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-serializable copy of every metric's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high": g.high}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} histograms={len(self._histograms)}>")
