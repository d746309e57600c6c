"""Run cache: content addressing, hit/miss behavior, invalidation."""

import dataclasses
import json

import pytest

from repro.apps import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.report import reports_to_json
from repro.parallel import (
    CellSpec,
    PlanSpec,
    RunCache,
    cache_key,
    code_fingerprint,
    run_cells,
)
from repro.parallel import cache as cache_mod
from repro.parallel import spec as spec_mod


#: CI's deliberately tight SLO: recovery takes ~0.5 simulated seconds, so
#: a 1 ms budget fires exactly once per killed run
TIGHT_RULES = {"rules": [{
    "name": "recovery-latency-tight", "metric": "kill_to_restore_s",
    "agg": "p99", "op": "<=", "threshold": 0.001,
    "window_s": 1000000.0, "severity": "critical"}]}
#: the same rule loosened so far that no run violates it
LOOSE_RULES = {"rules": [dict(TIGHT_RULES["rules"][0], threshold=1e9)]}


@pytest.fixture
def tight_rules(tmp_path):
    path = tmp_path / "tight_rules.json"
    path.write_text(json.dumps(TIGHT_RULES))
    return str(path)


def small_spec(seed=1, n_iters=12, label=""):
    cfg = HeatdisConfig(
        local_rows=8, cols=16, modeled_bytes_per_rank=16e6, n_iters=n_iters,
    )
    return CellSpec(
        app="heatdis",
        strategy="kr_veloc",
        n_ranks=2,
        config=cfg,
        ckpt_interval=4,
        env=paper_env(3, seed=seed, pfs_servers=1),
        plan=PlanSpec.between_checkpoints(1, 4, 1),
        label=label,
    )


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        assert cache_key(small_spec()) == cache_key(small_spec())

    def test_label_excluded_from_identity(self):
        assert cache_key(small_spec(label="a")) == \
            cache_key(small_spec(label="b"))

    def test_config_change_changes_key(self):
        assert cache_key(small_spec(n_iters=12)) != \
            cache_key(small_spec(n_iters=13))

    def test_seed_change_changes_key(self):
        assert cache_key(small_spec(seed=1)) != cache_key(small_spec(seed=2))

    def test_an_edited_rules_file_changes_the_key(self, tight_rules):
        spec = dataclasses.replace(small_spec(), rules=tight_rules)
        before = cache_key(spec)
        with open(tight_rules, "w") as fh:
            json.dump(LOOSE_RULES, fh)
        assert cache_key(spec) != before

    def test_a_whitespace_rewrite_keeps_the_key(self, tight_rules):
        spec = dataclasses.replace(small_spec(), rules=tight_rules)
        before = cache_key(spec)
        with open(tight_rules, "w") as fh:
            json.dump(TIGHT_RULES, fh, indent=4)
        assert cache_key(spec) == before

    def test_a_loosened_rule_reruns_and_fires_nothing(self, tmp_path,
                                                      tight_rules):
        cache = RunCache(tmp_path / "cache")
        spec = dataclasses.replace(small_spec(), rules=tight_rules)
        (tight,) = run_cells([spec], jobs=1, cache=cache)
        assert len(tight.report.alerts) == 1
        with open(tight_rules, "w") as fh:
            json.dump(LOOSE_RULES, fh)
        (rerun,) = run_cells([spec], jobs=1, cache=cache)
        assert not rerun.cached
        assert rerun.report.alerts == []

    def test_code_fingerprint_feeds_key(self):
        # the fingerprint is a stable digest of the package sources
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCacheHit:
    def test_hit_skips_simulation_and_matches(self, tmp_path):
        """A cache hit returns the identical report without re-simulating
        (asserted via the module run-counter)."""
        cache = RunCache(tmp_path)
        spec = small_spec()

        before = spec_mod.RUNS_EXECUTED
        first = run_cells([spec], jobs=1, cache=cache)[0]
        assert spec_mod.RUNS_EXECUTED == before + 1

        second = run_cells([spec], jobs=1, cache=cache)[0]
        assert spec_mod.RUNS_EXECUTED == before + 1  # no new simulation
        assert cache.hits == 1

        assert reports_to_json([first.report]) == \
            reports_to_json([second.report])
        assert first.failures == second.failures

    def test_changed_cell_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        run_cells([small_spec(seed=1)], jobs=1, cache=cache)
        before = spec_mod.RUNS_EXECUTED
        run_cells([small_spec(seed=2)], jobs=1, cache=cache)
        assert spec_mod.RUNS_EXECUTED == before + 1

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda entry: "{not json", id="torn-text"),
        pytest.param(lambda entry: "{}", id="empty-object"),
        pytest.param(lambda entry: "[]", id="array"),
        pytest.param(lambda entry: json.dumps({"schema": 1}), id="no-report"),
        pytest.param(
            lambda entry: json.dumps(dict(entry, report={
                k: v for k, v in entry["report"].items() if k != "buckets"})),
            id="report-missing-buckets"),
        pytest.param(
            lambda entry: json.dumps(dict(entry, report=dict(
                entry["report"], alerts=[{"metric": "kill_to_restore_s"}]))),
            id="alert-missing-rule"),
    ])
    def test_corrupt_entry_treated_as_miss(self, tmp_path, damage):
        """Torn text or well-formed JSON of another shape: a miss that is
        counted, re-simulated and overwritten -- never a crash."""
        cache = RunCache(tmp_path)
        spec = small_spec()
        good = run_cells([spec], jobs=1, cache=cache)[0]
        entry = tmp_path / f"{cache_key(spec)}.json"
        entry.write_text(damage(json.loads(entry.read_text())))
        assert cache.get(spec) is None
        assert cache.skipped == 1
        before = spec_mod.RUNS_EXECUTED
        again = run_cells([spec], jobs=1, cache=cache)[0]
        assert spec_mod.RUNS_EXECUTED == before + 1 and not again.cached
        assert again.report.to_dict() == good.report.to_dict()
        assert cache.get(spec) is not None  # the bad entry was overwritten

    def test_clear_removes_entries(self, tmp_path):
        cache = RunCache(tmp_path)
        run_cells([small_spec()], jobs=1, cache=cache)
        assert cache.clear() == 1
        assert cache.get(small_spec()) is None

    def test_entries_are_valid_json(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = small_spec()
        run_cells([spec], jobs=1, cache=cache)
        entry = json.loads((tmp_path / f"{cache_key(spec)}.json").read_text())
        assert entry["schema"] == 3
        assert entry["report"]["strategy"] == "kr_veloc"
        assert set(entry["report"]["data_path"]) == {
            "checkpoints", "checkpoint_bytes", "dirty_bytes",
            "dirty_fraction"}

    def test_a_schema_2_entry_is_a_miss_and_never_served(
            self, tmp_path, monkeypatch):
        """Schema 2 carried the dedup keys in ``data_path``.  Its entries
        sit under other keys, and one found under a schema-3 key is
        skipped like a corrupt one: the cell re-simulates."""
        cache = RunCache(tmp_path)
        spec = small_spec()
        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "CACHE_SCHEMA", 2)
            old = run_cells([spec], jobs=1, cache=cache)[0]
            old_path = tmp_path / f"{cache_key(spec)}.json"
        entry = json.loads(old_path.read_text())
        assert entry["schema"] == 2
        entry["report"]["data_path"].update(novel_bytes=0.0, dedup_ratio=1.0)
        old_path.write_text(json.dumps(entry))
        assert cache.get(spec) is None and cache.skipped == 0  # another key
        (tmp_path / f"{cache_key(spec)}.json").write_text(json.dumps(entry))
        assert cache.get(spec) is None and cache.skipped == 1
        before = spec_mod.RUNS_EXECUTED
        fresh = run_cells([spec], jobs=1, cache=cache)[0]
        assert spec_mod.RUNS_EXECUTED == before + 1 and not fresh.cached
        assert "dedup_ratio" not in fresh.report.data_path
        assert fresh.report.to_dict() == old.report.to_dict()
        assert cache.get(spec).report.to_dict() == fresh.report.to_dict()

    def test_hit_carries_the_whole_report(self, tmp_path, tight_rules):
        """A hit is the run it replaces: alerts, data-path volumes and
        every other report field, byte for byte once serialized."""
        from repro.report.ledger import RunRecord

        cache = RunCache(tmp_path / "cache")
        spec = dataclasses.replace(small_spec(), rules=tight_rules)
        fresh = run_cells([spec], cache=cache)[0]
        hit = run_cells([spec], cache=cache)[0]
        assert hit.cached and not fresh.cached
        assert len(fresh.report.alerts) == 1
        assert fresh.report.data_path["dirty_fraction"] == 1.0
        assert json.dumps(hit.report.to_dict()) == \
            json.dumps(fresh.report.to_dict())
        assert hit.report.alerts[0].render() == \
            fresh.report.alerts[0].render()
        a = RunRecord.from_cell_result(fresh, seed=1)
        b = RunRecord.from_cell_result(hit, seed=1)
        assert (b.alerts, b.violations, b.data_path) == \
            (a.alerts, a.violations, a.data_path) == \
            (1, 0, fresh.report.data_path)

    def test_interrupted_sweep_keeps_what_it_finished(self, tmp_path):
        """Results are stored as they complete, not after the last one."""
        from repro.util.errors import ConfigError

        specs = [small_spec(seed=1),
                 dataclasses.replace(small_spec(seed=2), strategy="warp"),
                 small_spec(seed=3)]
        with pytest.raises(ConfigError, match="unknown strategy 'warp'"):
            run_cells(specs, jobs=1, cache=RunCache(tmp_path))
        assert (tmp_path / f"{cache_key(specs[0])}.json").exists()
        cache = RunCache(tmp_path)
        with pytest.raises(ConfigError):
            run_cells(specs, jobs=1, cache=cache)
        assert cache.hits == 1


class TestCampaignIntegration:
    def test_campaign_with_cache_and_jobs_matches_plain(self, tmp_path):
        from repro.experiments.campaign import run_campaign

        kwargs = dict(n_ranks=2, n_iters=12, n_spares=1, max_failures=1)
        plain = run_campaign(**kwargs)
        cached = run_campaign(**kwargs, jobs=2, cache=RunCache(tmp_path))
        again = run_campaign(**kwargs, jobs=2, cache=RunCache(tmp_path))
        for study in (cached, again):
            assert study.ideal_wall == plain.ideal_wall
            for a, b in zip(plain.results, study.results):
                assert (a.strategy, a.failures) == (b.strategy, b.failures)
                assert a.report.to_dict() == b.report.to_dict()

    def test_campaign_grid_cold_equals_warm(self, tmp_path, tight_rules):
        from repro.experiments.campaign import run_campaign_grid
        from repro.report.ledger import build_scorecard, flatten_scorecard

        kwargs = dict(scales=(2,), seeds=(2, 3), n_iters=24, n_spares=2,
                      max_failures=2, rules=tight_rules)
        cold = run_campaign_grid(**kwargs, cache=RunCache(tmp_path / "c"))
        warm = run_campaign_grid(**kwargs, cache=RunCache(tmp_path / "c"))
        assert all(r.cached for r in warm.runs)
        assert not any(r.cached for r in cold.runs)
        assert sum(r.alerts for r in cold.runs) > 0

        def simulated(ledger):  # everything but provenance
            return [dict(r.to_dict(), cached=None, host_seconds=None)
                    for r in ledger.runs]

        assert simulated(warm) == simulated(cold)
        cold_card, warm_card = build_scorecard(cold), build_scorecard(warm)
        assert flatten_scorecard(warm_card).keys() == \
            flatten_scorecard(cold_card).keys()
        assert any("dirty_fraction" in key
                   for key in flatten_scorecard(cold_card))
        assert warm_card == cold_card  # provenance lives in the ledger

    def test_unknown_strategy_keyerror_names_known(self):
        import pytest

        from repro.experiments.campaign import CampaignResult, CampaignStudy
        from repro.harness import RunReport

        rep = RunReport(strategy="kr_veloc", app="heatdis", n_ranks=2,
                        wall_time=2.0, attempts=1, failures=0, buckets={},
                        results={})
        study = CampaignStudy(
            ideal_wall=1.0,
            results=[CampaignResult("kr_veloc", rep, failures=0)],
        )
        with pytest.raises(KeyError, match="warp-drive") as exc_info:
            study.efficiency("warp-drive")
        assert "kr_veloc" in str(exc_info.value)
        with pytest.raises(KeyError, match="warp-drive"):
            study.result("warp-drive")
        assert study.efficiency("kr_veloc") == 0.5
