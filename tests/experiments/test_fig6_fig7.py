"""Figure 6's and Figure 7's claims on the committed default-scale cells,
one test per claim of :mod:`repro.experiments.claims`; and the noise
study, which sweeps a jitter that no table holds."""

import pytest

from repro.experiments import claims, run_fig6_cell
from repro.experiments.fig6_minimd import format_fig6
from repro.experiments.fig7_views import format_fig7


@pytest.fixture(scope="module")
def cells(figures):
    return figures.evidence("fig6")


@pytest.fixture(scope="module")
def census(figures):
    return figures.evidence("fig7")


class TestFig6Claims:
    def test_phases_present(self, cells):
        assert claims.claim_11_phase_ordering(cells)

    def test_force_compute_is_compute_bound(self, cells):
        assert claims.claim_11_phase_ordering(cells)

    def test_communicator_phase_takes_largest_relative_overhead(self, cells):
        assert claims.claim_12_checkpointing_hits_the_communicator(cells)

    def test_checkpoint_flushes_never_shorten_the_communicator(self, cells):
        assert claims.claim_12_checkpointing_hits_the_communicator(cells)

    def test_fenix_saves_more_with_expensive_init(self, cells):
        assert claims.claim_13_fenix_saves_the_relaunch(cells)

    def test_weak_scaling_wall_roughly_flat(self, cells):
        assert claims.claim_14_wall_flat_across_node_counts(cells)

    def test_noise_hides_checkpoint_latency(self):
        """Section VI-D1: performance variability hides part of the
        asynchronous-checkpoint overhead in the communication waits."""

        def comm_overhead(jitter):
            base = run_fig6_cell("none", 8, with_failure=False,
                                 pfs_servers=1, jitter=jitter)
            ckpt = run_fig6_cell("fenix_kr_veloc", 8, with_failure=False,
                                 pfs_servers=1, jitter=jitter)
            b = base.clean.category("communicator")
            return (ckpt.clean.category("communicator") - b) / max(b, 1e-9)

        quiet = comm_overhead(0.02)
        noisy = comm_overhead(0.3)
        assert noisy < quiet

    def test_format(self, cells):
        assert "force_compute" in format_fig6(list(cells.values()))


class TestFig7:
    def test_counts_match_paper_at_all_sizes(self, census):
        assert claims.claim_15_census_is_39_3_19_at_every_size(census)

    def test_fractions_sum_to_one(self, census):
        assert claims.claim_17_skipped_views_are_large(census)

    def test_skipped_views_are_large(self, census):
        assert claims.claim_17_skipped_views_are_large(census)

    def test_dominant_view_majority(self, census):
        assert claims.claim_16_one_view_holds_the_majority(census)

    def test_fractions_stable_across_sizes(self, census):
        assert claims.claim_17_skipped_views_are_large(census)

    def test_format(self, census):
        assert "checkpointed" in format_fig7(census)
