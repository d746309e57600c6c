"""Metrics registry unit tests: bucketing, merge, reset semantics."""

import math

import pytest

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.util.errors import ConfigError


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_reset(self):
        c = Counter("x")
        c.inc(7)
        c.reset()
        assert c.value == 0.0


class TestGauge:
    def test_set_tracks_high_water(self):
        g = Gauge("backlog")
        g.set(3)
        g.set(1)
        assert g.value == 1.0
        assert g.high == 3.0

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(2)
        g.inc(-1)  # a gauge level goes both ways
        assert g.value == 1.0
        assert g.high == 2.0

    def test_reset(self):
        g = Gauge("x")
        g.set(5)
        g.reset()
        assert g.value == 0.0 and g.high == 0.0


class TestHistogramBucketing:
    def test_powers_land_in_own_bucket(self):
        h = Histogram("lat", base=2.0)
        # (2^(i-1), 2^i]: 1 -> bucket 0, 2 -> bucket 1, 4 -> bucket 2
        assert h.bucket_index(1.0) == 0
        assert h.bucket_index(2.0) == 1
        assert h.bucket_index(4.0) == 2
        assert h.bucket_index(3.0) == 2  # (2, 4]

    def test_fractional_values(self):
        h = Histogram("lat", base=2.0)
        assert h.bucket_index(0.5) == -1
        assert h.bucket_index(0.3) == -1  # (0.25, 0.5]
        assert h.bucket_index(0.25) == -2

    def test_underflow_bucket(self):
        h = Histogram("lat")
        assert h.bucket_index(0.0) is None
        assert h.bucket_index(-3.0) is None
        h.observe(0.0)
        assert h.buckets[None] == 1

    def test_bounds_contain_values(self):
        h = Histogram("lat", base=10.0)
        for v in (1e-6, 0.004, 1.0, 9.99, 10.0, 123.0):
            idx = h.bucket_index(v)
            assert h.base ** (idx - 1) < v <= h.base ** idx

    def test_stats(self):
        h = Histogram("sz")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == 2.0
        assert h.min == 1.0 and h.max == 3.0

    def test_bad_base(self):
        with pytest.raises(ConfigError):
            Histogram("x", base=1.0)

    def test_to_dict_serializable_keys(self):
        h = Histogram("sz")
        h.observe(0.0)
        h.observe(4.0)
        d = h.to_dict()
        assert "underflow" in d["buckets"]
        assert d["buckets"]["2"] == 1
        assert d["min"] == 0.0 and d["max"] == 4.0

    def test_empty_to_dict(self):
        d = Histogram("sz").to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None


class TestHistogramMerge:
    def test_merge_adds_buckets(self):
        a, b = Histogram("x"), Histogram("x")
        a.observe(1.0)
        b.observe(1.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 3
        assert a.buckets[0] == 2
        assert a.max == 100.0

    def test_base_mismatch_rejected(self):
        a, b = Histogram("x", base=2.0), Histogram("x", base=10.0)
        with pytest.raises(ConfigError):
            a.merge(b)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")
        with pytest.raises(ConfigError):
            reg.histogram("x")

    @pytest.mark.parametrize("first", ["counter", "gauge", "histogram"])
    def test_clash_raised_when_second_type_first_registers(self, first):
        # the check runs only when a name is created: every other family
        # must still refuse it then, and go on refusing it afterwards
        reg = MetricsRegistry()
        metric = getattr(reg, first)("x")
        for second in ("counter", "gauge", "histogram"):
            if second == first:
                continue
            for _ in range(2):
                with pytest.raises(ConfigError):
                    getattr(reg, second)("x")
        assert getattr(reg, first)("x") is metric
        assert len(reg) == 1

    def test_convenience_helpers(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 5)
        reg.observe("h", 1.5)
        assert reg.counter("c").value == 2
        assert reg.gauge("g").high == 5
        assert reg.histogram("h").count == 1

    def test_len_and_names(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("b", 1)
        reg.observe("c", 1)
        assert len(reg) == 3
        assert set(reg.names()) == {"a", "b", "c"}


class TestCrossRankMerge:
    def make_rank(self, rank):
        reg = MetricsRegistry()
        reg.inc("ckpt.bytes", 100 * (rank + 1))
        reg.set_gauge("backlog", rank)
        reg.observe("latency", 0.1 * (rank + 1))
        return reg

    def test_counters_sum(self):
        merged = MetricsRegistry()
        for r in range(4):
            merged.merge(self.make_rank(r))
        assert merged.counter("ckpt.bytes").value == 100 + 200 + 300 + 400

    def test_gauges_take_max(self):
        merged = MetricsRegistry()
        for r in range(4):
            merged.merge(self.make_rank(r))
        assert merged.gauge("backlog").value == 3
        assert merged.gauge("backlog").high == 3

    def test_histograms_merge_bucketwise(self):
        merged = MetricsRegistry()
        for r in range(4):
            merged.merge(self.make_rank(r))
        h = merged.histogram("latency")
        assert h.count == 4
        assert math.isclose(h.total, 0.1 + 0.2 + 0.3 + 0.4)

    def test_merge_into_empty_equals_snapshot(self):
        src = self.make_rank(2)
        merged = MetricsRegistry()
        merged.merge(src)
        assert merged.snapshot() == src.snapshot()


class TestResetOnRestart:
    def test_reset_zeroes_but_keeps_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("ckpt")
        g = reg.gauge("backlog")
        h = reg.histogram("lat")
        c.inc(10)
        g.set(5)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0.0
        assert g.value == 0.0 and g.high == 0.0
        assert h.count == 0 and h.buckets == {}
        # cached handles keep working and land in the same registry
        c.inc(1)
        assert reg.counter("ckpt").value == 1.0
        assert reg.counter("ckpt") is c

    def test_snapshot_after_reset_is_clean(self):
        reg = MetricsRegistry()
        reg.inc("a", 3)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 0.0}
