"""Figure-6 and Figure-7 driver tests (reduced scale)."""

import pytest

from repro.experiments import run_fig6_cell, run_fig7_census
from repro.experiments.fig6_minimd import format_fig6
from repro.experiments.fig7_views import format_fig7


RANKS = [4, 8]  # reduced from the paper's {8, 27, 64} for test speed


@pytest.fixture(scope="module")
def cells():
    out = {}
    for n in RANKS:
        out[("none", n)] = run_fig6_cell(
            "none", n, with_failure=False, pfs_servers=1
        )
        out[("kr_veloc", n)] = run_fig6_cell("kr_veloc", n, pfs_servers=1)
        out[("fenix_kr_veloc", n)] = run_fig6_cell(
            "fenix_kr_veloc", n, pfs_servers=1
        )
    return out


class TestFig6Claims:
    def test_phases_present(self, cells):
        rep = cells[("fenix_kr_veloc", 8)].clean
        assert rep.category("force_compute") > rep.category("neighboring")
        assert rep.category("communicator") > 0

    def test_force_compute_is_compute_bound(self, cells):
        """'Force Compute' dominated by compute, 'Communicator' by waits."""
        rep = cells[("fenix_kr_veloc", 8)].clean
        assert rep.category("force_compute") > rep.category("communicator")

    def test_communicator_phase_takes_largest_relative_overhead(self, cells):
        """Claim 6: checkpointing hits the communication-bound phase
        hardest, relatively."""
        base = cells[("none", 8)].clean
        ckpt = cells[("fenix_kr_veloc", 8)].clean

        def rel_overhead(cat):
            b = base.category(cat)
            return (ckpt.category(cat) - b) / b if b > 0 else 0.0

        assert rel_overhead("communicator") > rel_overhead("force_compute")

    def test_checkpoint_flushes_never_shorten_the_communicator(self, cells):
        """What claim 12 rests on: x/v/f change every step, so every
        version is flushed and the congestion lands on the communicator
        (stale chunk digests once deduplicated those flushes away)."""
        for n in RANKS:
            base = cells[("none", n)].clean.category("communicator")
            for strategy in ("kr_veloc", "fenix_kr_veloc"):
                ckpt = cells[(strategy, n)].clean.category("communicator")
                assert ckpt > base * 1.02, (strategy, n)

    def test_fenix_saves_more_with_expensive_init(self, cells):
        """Claim 7: MiniMD's large init -> large Fenix 'Other' savings."""
        for n in RANKS:
            fenix = cells[("fenix_kr_veloc", n)]
            relaunch = cells[("kr_veloc", n)]
            other_saving = (
                (relaunch.failed.other - relaunch.clean.other)
                - (fenix.failed.other - fenix.clean.other)
            )
            # the relaunch pays launch+init again (~several seconds here)
            assert other_saving > 2.0
            assert fenix.failure_cost < relaunch.failure_cost

    def test_weak_scaling_wall_roughly_flat(self, cells):
        walls = [cells[("fenix_kr_veloc", n)].clean.wall_time for n in RANKS]
        assert max(walls) / min(walls) < 1.2

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
        table = format_fig6([cells[("fenix_kr_veloc", n)] for n in RANKS])
        assert "force_compute" in table


class TestFig7:
    def test_counts_match_paper_at_all_sizes(self):
        rows = run_fig7_census()
        assert [r.sim_size for r in rows] == [100, 200, 300, 400]
        for row in rows:
            assert row.counts == {
                "checkpointed": 39, "alias": 3, "skipped": 19,
            }

    def test_fractions_sum_to_one(self):
        for row in run_fig7_census([100, 400]):
            assert sum(row.fractions.values()) == pytest.approx(1.0)

    def test_skipped_views_are_large(self):
        """'the large memory size of the 19 skipped views'."""
        row = run_fig7_census([200])[0]
        assert row.fractions["skipped"] > row.fractions["alias"]
        assert row.fractions["skipped"] > 0.3

    def test_dominant_view_majority(self):
        """'a single view contains the majority of the data'."""
        for row in run_fig7_census([100, 400]):
            assert row.dominant_view_fraction > 0.5

    def test_fractions_stable_across_sizes(self):
        """The class fractions are size-independent (all classes scale
        with the position array), as in the paper's flat bars."""
        rows = run_fig7_census()
        first = rows[0].fractions
        for row in rows[1:]:
            for key in first:
                assert row.fractions[key] == pytest.approx(first[key], abs=0.02)

    def test_format(self):
        text = format_fig7(run_fig7_census([100]))
        assert "checkpointed" in text
