"""Campaign ledger: records, scorecards, regressions, anomaly flags."""

import pytest

from repro.report.compare import SCORECARD, diff_rows
from repro.report.ledger import (
    BENCH_ANCHOR,
    BENCH_ANCHOR_RANK_ITERS,
    LEDGER_SCHEMA,
    CampaignLedger,
    RunRecord,
    build_scorecard,
    flag_anomalies,
    flatten_scorecard,
    format_scorecard,
    metric_direction,
)


def record(label="kr/r4/s1", strategy="kr_veloc", n_ranks=4, seed=1,
           wall=20.0, failures=2, buckets=None, **kw):
    return RunRecord(
        label=label, strategy=strategy, app="heatdis", n_ranks=n_ranks,
        seed=seed, wall_time=wall, attempts=failures + 1,
        failures=failures,
        buckets=buckets or {"recompute": 2.0, "checkpoint_function": 0.5},
        **kw,
    )


def make_ledger(walls=(20.0, 22.0, 21.0), ideal=10.0):
    ledger = CampaignLedger(meta={"app": "heatdis"})
    ledger.add_ideal(4, ideal)
    ledger.add_run(record(label="none/r4", strategy="none", seed=0,
                          wall=ideal, failures=0, buckets={}))
    for i, wall in enumerate(walls):
        # buckets proportional to wall so the *_frac metrics stay flat
        # across wall-time changes (only overhead/latency/wall move)
        ledger.add_run(record(
            label=f"kr/r4/s{i}", seed=i, wall=wall,
            buckets={"recompute": 0.1 * wall,
                     "checkpoint_function": 0.025 * wall},
        ))
    return ledger


class TestRunRecord:
    def test_derived_metrics(self):
        r = record(wall=20.0, failures=2)
        assert r.efficiency(10.0) == pytest.approx(0.5)
        assert r.overhead_pct(10.0) == pytest.approx(100.0)
        assert r.recovery_latency(10.0) == pytest.approx(5.0)
        assert r.bucket_frac("recompute") == pytest.approx(0.1)

    def test_failure_free_has_no_recovery_latency(self):
        assert record(failures=0).recovery_latency(10.0) is None

    def test_roundtrip(self):
        r = record(cached=True, host_seconds=0.25, n_iters=30)
        assert RunRecord.from_dict(r.to_dict()) == r


class TestLedger:
    def test_views(self):
        ledger = make_ledger()
        assert ledger.strategies == ["kr_veloc"]  # "none" excluded
        assert ledger.scales == [4]
        assert ledger.seeds == [0, 1, 2]
        assert ledger.cells() == 4  # baseline included
        assert len(ledger.group("kr_veloc", 4)) == 3

    def test_ideal_lookup_error_names_known_scales(self):
        with pytest.raises(KeyError, match=r"have \[4\]"):
            make_ledger().ideal_for(8)

    def test_save_load_roundtrip(self, tmp_path):
        ledger = make_ledger()
        ledger.exemplars["kr_veloc"] = {"timeline": "t", "folded": "f"}
        path = tmp_path / "campaign.json"
        ledger.save(path)
        loaded = CampaignLedger.load(path)
        assert loaded.to_dict() == ledger.to_dict()

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            CampaignLedger.from_dict({"schema": LEDGER_SCHEMA + 1})


class TestScorecard:
    def test_distributions_and_ci(self):
        sc = build_scorecard(make_ledger())
        entry = sc["strategies"]["kr_veloc"]
        assert entry["n_runs"] == 3
        assert entry["n_failed_runs"] == 3
        m = entry["metrics"]
        assert m["overhead_pct"]["n"] == 3
        assert m["overhead_pct"]["ci_lo"] <= m["overhead_pct"]["mean"]
        assert m["overhead_pct"]["mean"] <= m["overhead_pct"]["ci_hi"]
        # recovery latency = (wall - ideal) / failures over failed runs
        assert m["recovery_latency_s"]["mean"] == pytest.approx(
            (10.0 + 12.0 + 11.0) / 3 / 2
        )

    def test_deterministic(self):
        assert build_scorecard(make_ledger()) == \
            build_scorecard(make_ledger())

    def test_flatten_skips_empty_distributions(self):
        ledger = make_ledger()
        for r in ledger.runs:
            r.failures = 0  # no failed runs -> empty recovery latency
        flat = flatten_scorecard(build_scorecard(ledger))
        assert "kr_veloc.overhead_pct.mean" in flat
        assert not any("recovery_latency" in k for k in flat)

    def test_format_smoke(self):
        text = format_scorecard(build_scorecard(make_ledger()))
        assert "kr_veloc" in text and "[" in text


def regressions(base, cur, budget):
    """The scorecard rows the budget gate fails."""
    rows = diff_rows(SCORECARD, flatten_scorecard(base),
                     flatten_scorecard(cur), budget)
    return [d for d in rows if d.over]


class TestRegressions:
    def test_direction_up_and_down(self):
        assert metric_direction("s.overhead_pct.mean") == "up"
        assert metric_direction("s.efficiency.p95") == "down"

    def test_no_change_passes(self):
        sc = build_scorecard(make_ledger())
        assert flatten_scorecard(sc)
        assert diff_rows(SCORECARD, flatten_scorecard(sc),
                         flatten_scorecard(sc), 0.0) == []

    def test_worse_overhead_fails(self):
        base = build_scorecard(make_ledger())
        cur = build_scorecard(make_ledger(walls=(30.0, 33.0, 31.0)))
        failing = regressions(base, cur, budget=0.10)
        assert any("overhead_pct" in d.name for d in failing)

    def test_efficiency_drop_fails_despite_down_direction(self):
        base = build_scorecard(make_ledger())
        cur = build_scorecard(make_ledger(walls=(40.0, 44.0, 42.0)))
        failing = regressions(base, cur, budget=0.10)
        assert any("efficiency" in d.name for d in failing)

    def test_improvement_passes(self):
        base = build_scorecard(make_ledger())
        cur = build_scorecard(make_ledger(walls=(15.0, 16.0, 15.5)))
        assert regressions(base, cur, budget=0.05) == []

    def test_vanished_strategy_is_structural(self):
        base = build_scorecard(make_ledger())
        empty = build_scorecard(CampaignLedger())
        failing = regressions(base, empty, budget=99.0)
        assert failing and all(d.structural for d in failing)


class TestAnomalies:
    def test_clean_campaign_has_no_flags(self):
        assert flag_anomalies(make_ledger()) == []

    def test_wall_time_outlier_flagged(self):
        ledger = make_ledger()
        for i in range(5):
            ledger.add_run(record(label=f"kr/r4/x{i}", seed=10 + i,
                                  wall=20.0 + 0.01 * i))
        ledger.add_run(record(label="kr/r4/weird", seed=99, wall=80.0))
        flags = flag_anomalies(ledger, z_threshold=2.0)
        assert any("kr/r4/weird" in f and "outlier" in f for f in flags)

    def test_violations_flagged(self):
        ledger = make_ledger()
        ledger.runs[1].violations = 2
        flags = flag_anomalies(ledger)
        assert any("violation" in f for f in flags)

    def _bench(self, mean_s):
        return {"benchmarks": [
            {"name": BENCH_ANCHOR, "stats": {"mean": mean_s}},
        ]}

    def test_host_anomaly_flagged_against_anchor(self):
        ledger = make_ledger()
        for r in ledger.runs:
            r.n_iters = 30
            r.host_seconds = 100.0  # absurd for 4 ranks x 30 iters
        # anchor: BENCH_ANCHOR_RANK_ITERS units in 0.03s host
        flags = flag_anomalies(ledger, bench=self._bench(0.03))
        assert any("host anomaly" in f for f in flags)
        assert any("environment" in f for f in flags)

    def test_normal_host_cost_not_flagged(self):
        ledger = make_ledger()
        for r in ledger.runs:
            r.n_iters = 30
            # exactly the anchor's per-unit cost
            r.host_seconds = 0.03 * (r.n_ranks * 30) / BENCH_ANCHOR_RANK_ITERS
        assert flag_anomalies(ledger, bench=self._bench(0.03)) == []

    def test_cached_runs_skip_host_check(self):
        ledger = make_ledger()
        for r in ledger.runs:
            r.n_iters = 30
            r.host_seconds = 100.0
            r.cached = True
        assert flag_anomalies(ledger, bench=self._bench(0.03)) == []

    def test_missing_anchor_reported_not_silent(self):
        flags = flag_anomalies(make_ledger(), bench={"benchmarks": []})
        assert any("anchor" in f and "skipped" in f for f in flags)
