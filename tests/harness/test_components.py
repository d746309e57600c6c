"""Unit tests for harness components: strategies, recompute tracker and
the rank-side iteration that consults it, report."""

import pytest

from repro.harness import STRATEGIES, RecomputeTracker, StrategySpec
from repro.harness.runner import RunReport
from repro.mpi import World
from repro.sim import Cluster, ClusterSpec
from repro.sim.failures import RankKilledError
from repro.sim.trace import Trace
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


class TestRankIteration:
    """``RankContext.iteration``: the one home of the recompute decision."""

    @pytest.fixture
    def ctx(self):
        cluster = Cluster(ClusterSpec(n_nodes=1), trace=Trace())
        return World(cluster, 1).context(0)

    @staticmethod
    def recompute_records(ctx):
        return ctx.world.trace.records(kind="recompute")

    def test_first_execution_advances_after_the_body(self, ctx):
        tr = RecomputeTracker()
        with ctx.iteration(4, tr, slot=0):
            assert tr.watermark(0) == -1
            ctx.account.charge("compute", 1.0)
        assert tr.watermark(0) == 4
        assert ctx.account.get("recompute") == 0.0
        assert self.recompute_records(ctx) == []

    def test_reexecution_charges_recompute_without_advancing(self, ctx):
        tr = RecomputeTracker()
        tr.advance(0, 5)
        with ctx.iteration(3, tr, slot=0):
            ctx.account.charge("compute", 1.0)
        assert tr.watermark(0) == 5
        assert ctx.account.get("recompute") == 1.0
        [record] = self.recompute_records(ctx)
        assert record.source == "rank0"
        assert record.fields["iteration"] == 3

    def test_a_killed_body_advances_nothing(self, ctx):
        tr = RecomputeTracker()
        with pytest.raises(RankKilledError):
            with ctx.iteration(2, tr, slot=0):
                raise RankKilledError(0)
        assert tr.watermark(0) == -1
        assert self.recompute_records(ctx) == []

    def test_each_slot_keeps_its_own_watermark(self, ctx):
        tr = RecomputeTracker()
        with ctx.iteration(7, tr, slot=3):
            pass
        assert (tr.watermark(3), tr.watermark(0)) == (7, -1)

    def test_no_tracker_no_bookkeeping(self, ctx):
        with ctx.iteration(0, None, slot=0):
            ctx.account.charge("compute", 1.0)
        assert ctx.account.get("recompute") == 0.0
        assert self.recompute_records(ctx) == []


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
