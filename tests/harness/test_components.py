"""Unit tests for harness components: strategies, recompute tracker, report."""

import pytest

from repro.harness import STRATEGIES, RecomputeTracker, StrategySpec
from repro.harness.runner import RunReport
from repro.util.errors import ConfigError


class TestStrategies:
    def test_all_expected_strategies_exist(self):
        assert set(STRATEGIES) == {
            "none", "veloc", "kr_veloc", "fenix_veloc", "fenix_kr_veloc",
            "fenix_kr_imr", "fenix_kr_partial",
        }

    def test_checkpointing_property(self):
        assert not STRATEGIES["none"].checkpointing
        assert STRATEGIES["veloc"].checkpointing

    def test_imr_requires_fenix(self):
        with pytest.raises(ConfigError):
            StrategySpec("bad", fenix=False, kr=True, backend="fenix_imr")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            StrategySpec("bad", fenix=False, kr=False, backend="tape")

    def test_partial_scope(self):
        assert STRATEGIES["fenix_kr_partial"].scope == "recovered_only"


class TestRecomputeTracker:
    def test_fresh_iteration_not_recompute(self):
        tr = RecomputeTracker()
        assert not tr.is_recompute(0, 0)

    def test_advance_then_recompute(self):
        tr = RecomputeTracker()
        tr.advance(0, 5)
        assert tr.is_recompute(0, 3)
        assert tr.is_recompute(0, 5)
        assert not tr.is_recompute(0, 6)

    def test_slots_independent(self):
        tr = RecomputeTracker()
        tr.advance(0, 10)
        assert not tr.is_recompute(1, 5)

    def test_watermark_monotonic(self):
        tr = RecomputeTracker()
        tr.advance(0, 10)
        tr.advance(0, 3)  # going back must not lower the watermark
        assert tr.watermark(0) == 10

    def test_reset(self):
        tr = RecomputeTracker()
        tr.advance(0, 10)
        tr.reset()
        assert tr.watermark(0) == -1


class TestRunReport:
    def make_report(self, wall=10.0, buckets=None):
        return RunReport(
            strategy="x", app="heatdis", n_ranks=4, wall_time=wall,
            attempts=1, failures=0,
            buckets=buckets or {"app_compute": 6.0, "app_mpi": 1.0},
            results={},
        )

    def test_other_is_remainder(self):
        rep = self.make_report()
        assert rep.accounted == 7.0
        assert rep.other == 3.0

    def test_other_clamped_at_zero(self):
        rep = self.make_report(wall=5.0)
        assert rep.other == 0.0

    def test_category_missing_is_zero(self):
        assert self.make_report().category("recompute") == 0.0

    def test_as_row(self):
        row = self.make_report().as_row()
        assert row["wall_time"] == 10.0
        assert row["other"] == 3.0
