"""Recovery critical path: the walker's kill -> re-entry chain, with
layer attribution, on the profiled scenarios of this package."""

import pytest

from repro.monitor.explain import (
    episode,
    episodes,
    explain_failure,
    recovery_path,
)
from repro.sim.failures import IterationFailure

from tests.profile.conftest import INTERVAL, KILL_RANK, RANKS, run_profiled

#: kill -> critical re-entry (s) of the seeded kill, as the span-based
#: critical path it replaced measured them
PINNED_TOTALS = {
    "fenix_kr_veloc": 0.5040831436567359,
    "fenix_kr_imr": 0.5018039632688414,
    "fenix_veloc": 0.5040871242852241,
    "kr_veloc": 6.407862445876126,
}
SHRINK_TOTAL = 0.03217501599999996


def walk(run):
    tel = run[0]
    return episode(list(tel.trace))


@pytest.fixture(scope="module", params=sorted(PINNED_TOTALS))
def seeded_kill(request):
    plan = IterationFailure.between_checkpoints(KILL_RANK, INTERVAL, 1)
    tel, _ = run_profiled(request.param, plan)
    return request.param, episode(list(tel.trace))


class TestFig5CriticalPath:
    def test_chain_shape(self, fig5_run):
        ep = walk(fig5_run)
        assert ep.kill.fields["rank"] == KILL_RANK
        assert ep.total > 0.0
        # edges tile [kill, re-entry] with no gaps or overlaps
        assert ep.edges[0].start == ep.kill.time
        assert ep.edges[-1].end == ep.kill.time + ep.total
        for prev, nxt in zip(ep.edges, ep.edges[1:]):
            assert nxt.start == prev.end
        assert sum(e.duration for e in ep.edges) == pytest.approx(ep.total)

    def test_per_layer_attribution(self, fig5_run):
        ep = walk(fig5_run)
        layers = ep.by_layer()
        assert list(layers) == ["ulfm", "fenix", "veloc", "recompute", "kr"]
        assert sum(layers.values()) == pytest.approx(ep.total)
        # the restore gap is the data layer's, not the control layer's
        assert layers["veloc"] == pytest.approx(0.5037813208458424, abs=1e-9)

    def test_critical_rank_has_latest_reentry(self, fig5_run):
        ep = walk(fig5_run)
        assert ep.reentry[ep.critical_rank] == max(ep.reentry.values())
        assert ep.kill.time + ep.total == ep.reentry[ep.critical_rank]
        # the dead process itself never re-enters; its spare (world
        # rank RANKS) does
        assert KILL_RANK not in ep.reentry
        assert sorted(ep.reentry) == [0, 1, 3, RANKS]

    def test_explicit_rank_selection(self, fig5_run):
        records = list(fig5_run[0].trace)
        assert episode(records, rank=KILL_RANK, occurrence=0).kill \
            == episodes(records)[0].kill
        with pytest.raises(ValueError, match="occurrence 5 out of range"):
            episode(records, rank=KILL_RANK, occurrence=5)
        with pytest.raises(ValueError, match="no failure found for rank 0"):
            episode(records, rank=0)  # rank 0 never died

    def test_format_renders(self, fig5_run):
        text = explain_failure(list(fig5_run[0].trace))
        assert "recovery path: 0.504083 s" in text
        assert "[veloc    ]" in text
        assert "<- critical" in text

    def test_to_dict_roundtrip(self, fig5_run):
        # the dict align's downstream report carries
        path = recovery_path(list(fig5_run[0].trace))
        assert path["total"] == pytest.approx(
            sum(v for k, v in path.items() if k != "total"))
        ep = walk(fig5_run)
        assert path == {**ep.by_layer(), "total": ep.total}


class TestSeededKillTotals:
    """One definition of recovery time: the walker reproduces the span
    critical path's totals, and charges each gap to the layer that owns
    it (docs/PROTOCOLS.md §1)."""

    def test_total_is_pinned(self, seeded_kill):
        strategy, ep = seeded_kill
        assert ep.total == pytest.approx(PINNED_TOTALS[strategy], abs=1e-9)

    def test_gaps_go_to_their_owner(self, seeded_kill):
        strategy, ep = seeded_kill
        layers = ep.by_layer()
        if strategy.startswith("fenix"):
            # the ~0.5 s up to recover / imr_restore is the data layer's
            assert "process" not in layers
            assert 0.50 < layers["veloc"] < 0.51
            assert ep.edges[2].record.kind in ("recover", "imr_restore")
        else:
            # mpirun's abort, teardown and relaunch, up to the new world
            assert layers["process"] == pytest.approx(5.100003, abs=1e-6)
            assert ep.edges[0].record.kind == "comm_create"


class TestCleanRunCriticalPath:
    def test_no_failure_no_path(self, clean_run):
        records = list(clean_run[0].trace)
        assert episodes(records) == []
        with pytest.raises(ValueError):
            episode(records)


class TestShrinkCriticalPath:
    """PROTOCOLS.md section-4: spare exhaustion resolved by shrinking."""

    def test_shrink_recovery_chain(self, shrink_run):
        tel, system, results = shrink_run
        assert results, "shrunk job did not finish"
        ep = walk(shrink_run)
        assert ep.kill.fields["rank"] == 1
        # no spare: the survivors (world ranks 0, 2) carry the chain
        assert sorted(ep.reentry) == [0, 2]
        assert ep.total == pytest.approx(SHRINK_TOTAL, abs=1e-9)
        layers = ep.by_layer()
        assert sum(layers.values()) == pytest.approx(ep.total)
        # the repair happened via shrink, not relaunch
        assert "process" not in layers
        assert any(r.kind == "shrink" for r in ep.stage("repair"))

    def test_survivors_recompute_on_chain(self, shrink_run):
        ep = walk(shrink_run)
        recompute_edges = [e for e in ep.edges if e.layer == "recompute"]
        assert len(recompute_edges) == 1
        assert recompute_edges[0].duration > 0.0
        # the recompute record is the shrink path's only re-entry marker
        assert ep.edges[-1] is recompute_edges[0]
