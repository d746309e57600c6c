"""Figure 5's claims on the committed default-scale cells (the ones
``python -m repro experiments fig5`` tabulates into ``results/``), one
test per claim of :mod:`repro.experiments.claims`; and the exactness of
recovery, which reads per-rank grids that no table holds."""

import numpy as np
import pytest

from repro.experiments import SCALES, claims, run_fig5_cell


@pytest.fixture(scope="module")
def cells(figures):
    return figures.evidence("fig5")


class TestOverheadClaims:
    def test_kr_adds_negligible_overhead_over_manual_veloc(self, cells):
        assert claims.claim_1_kr_manages_veloc_for_free(cells)

    def test_fenix_adds_negligible_overhead(self, cells):
        assert claims.claim_2_fenix_adds_nothing_to_a_clean_run(cells)

    def test_veloc_checkpoint_function_stays_cheap(self, cells):
        assert claims.claim_4_veloc_cost_is_congestion_not_the_call(cells)

    def test_veloc_cost_surfaces_as_app_mpi(self, cells):
        assert claims.claim_4_veloc_cost_is_congestion_not_the_call(cells)

    def test_imr_checkpoint_scales_with_size(self, cells):
        assert claims.claim_6_imr_checkpoint_scales_with_size(cells)

    def test_imr_beats_veloc_at_small_sizes(self, cells):
        assert claims.claim_7_imr_beats_veloc_at_small_sizes(cells)

    def test_imr_checkpoint_scales_worse_than_veloc(self, cells):
        assert claims.claim_6_imr_checkpoint_scales_with_size(cells)


class TestFailureClaims:
    def test_fenix_cuts_failure_cost(self, cells):
        assert claims.claim_3_fenix_cuts_failure_cost_in_other(cells)

    def test_recovery_cost_scales_with_data(self, cells):
        assert claims.claim_9_recovery_follows_data_not_backend(cells)

    def test_recovery_similar_between_backends(self, cells):
        assert claims.claim_9_recovery_follows_data_not_backend(cells)

    def test_recompute_dominates_recovery(self, cells):
        assert claims.claim_10_recompute_dominates_recovery(cells)


class TestDriver:
    def test_cells_complete_and_format(self, cells):
        """Six strategies at four sizes and at three node counts."""
        assert (len(cells.data), len(cells.weak)) == (24, 18)

    def test_failure_runs_recover_correct_state(self):
        scale = SCALES["default"]
        cell = run_fig5_cell("fenix_kr_veloc", "16MB", scale.fig5_ranks,
                             pfs_servers=scale.fig5_pfs)
        for r in range(scale.fig5_ranks):
            np.testing.assert_array_equal(
                cell.clean.results[r]["grid"], cell.failed.results[r]["grid"]
            )
