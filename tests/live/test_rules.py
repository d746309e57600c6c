"""SLO rule parsing, the alert engine, and the live session."""

import pytest

from repro.live.rules import (
    Alert,
    AlertEngine,
    AlertRule,
    LiveSession,
    RuleSet,
    load_rules,
    parse_rules,
)
from repro.live.series import TimeSeriesAggregator
from repro.sim.trace import Trace
from repro.util.errors import ConfigError


def ruleset(**overrides):
    kw = dict(name="r", metric="flush_backlog_bytes", op="<=",
              threshold=10.0, agg="last", window_s=100.0)
    kw.update(overrides)
    return RuleSet([AlertRule(**kw)])


class TestParsing:
    def test_example_rules_file_loads(self):
        rules = load_rules("examples/slo_rules.json")
        assert len(rules) == 4
        names = {r.name for r in rules}
        assert "recovery-latency-budget" in names

    def test_bare_list_accepted(self):
        rules = parse_rules([{"name": "a", "metric": "alive_ranks",
                              "op": ">=", "threshold": 1}])
        assert len(rules) == 1

    @pytest.mark.parametrize("doc, fragment", [
        ({"no_rules": []}, "no 'rules' key"),
        ("nope", "expected an object or list"),
        ({"rules": ["x"]}, "not an object"),
        ({"rules": [{"name": "a", "metric": "m", "op": "<=",
                     "threshold": 1, "wat": 2}]}, "unknown key"),
        ({"rules": [{"name": "a", "op": "<="}]}, "missing key"),
    ])
    def test_malformed_documents_rejected(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_rules(doc)

    def test_duplicate_names_rejected(self):
        rule = {"name": "a", "metric": "m", "op": "<=", "threshold": 1}
        with pytest.raises(ConfigError, match="duplicate"):
            parse_rules({"rules": [rule, dict(rule)]})

    @pytest.mark.parametrize("field, value", [
        ("op", "~="), ("agg", "p42"), ("severity", "fatal"),
        ("window_s", 0.0), ("for_s", -1.0), ("name", ""),
    ])
    def test_rule_validation(self, field, value):
        kw = dict(name="a", metric="m", op="<=", threshold=1.0)
        kw[field] = value
        with pytest.raises(ConfigError):
            AlertRule(**kw)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_rules(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_rules(str(bad))

    def test_no_data_holds_vacuously(self):
        rule = AlertRule(name="a", metric="m", op="<=", threshold=1.0)
        assert rule.holds(None)
        assert rule.holds(1.0)
        assert not rule.holds(2.0)


class TestAlertEngine:
    def test_unknown_metric_rejected_at_construction(self):
        agg = TimeSeriesAggregator()
        with pytest.raises(ConfigError, match="unknown metric"):
            AlertEngine(ruleset(metric="not_a_series"), agg)

    def test_fires_once_then_rearms_when_slo_holds_again(self):
        agg = TimeSeriesAggregator()
        engine = AlertEngine(ruleset(), agg)
        series = agg.series["flush_backlog_bytes"]
        series.observe(1.0, 100.0)
        assert len(engine.evaluate(1.0)) == 1
        # still violating: no second alert for the same episode
        assert engine.evaluate(2.0) == []
        # the SLO holds again: the rule re-arms...
        series.observe(3.0, 0.0)
        assert engine.evaluate(3.0) == []
        # ...and a fresh violation fires a fresh alert
        series.observe(4.0, 100.0)
        assert len(engine.evaluate(4.0)) == 1
        assert len(engine.alerts) == 2

    def test_for_s_persistence_on_simulated_time(self):
        agg = TimeSeriesAggregator()
        engine = AlertEngine(ruleset(for_s=5.0), agg)
        series = agg.series["flush_backlog_bytes"]
        series.observe(0.0, 100.0)
        assert engine.evaluate(0.0) == []   # violating since t=0
        assert engine.evaluate(4.0) == []   # not yet 5 s
        fired = engine.evaluate(5.0)
        assert len(fired) == 1
        assert fired[0].since == 0.0
        # a transient that clears before for_s never fires
        series.observe(6.0, 0.0)
        engine.evaluate(6.0)
        series.observe(7.0, 100.0)
        assert engine.evaluate(7.0) == []
        series.observe(8.0, 0.0)
        assert engine.evaluate(8.0) == []
        assert len(engine.alerts) == 1

    def test_alert_carries_causal_records_and_roundtrips(self):
        tr = Trace(enabled=True)
        agg = TimeSeriesAggregator()
        agg.attach(tr)
        engine = AlertEngine(ruleset(), agg)
        tr.emit(1.0, "veloc.server0", "flush_submit", nbytes=100.0)
        (alert,) = engine.evaluate(1.0)
        assert alert.records and "flush_submit" in alert.records[-1]
        assert "flush_backlog_bytes" in alert.render()
        assert Alert.from_dict(alert.to_dict()) == alert

    def test_provider_metric_served_from_monitor(self):
        agg = TimeSeriesAggregator()
        rules = RuleSet([AlertRule(name="clean",
                                   metric="invariant_violations",
                                   op="==", threshold=0.0)])
        # declared but unwired: no data, holds vacuously
        engine = AlertEngine(rules, agg)
        assert engine.evaluate(1.0) == []
        violations = []
        engine = AlertEngine(rules, agg,
                             providers={"invariant_violations":
                                        lambda: float(len(violations))})
        assert engine.evaluate(1.0) == []
        violations.append("boom")
        assert len(engine.evaluate(2.0)) == 1


class TestLiveSession:
    def kill_trace(self):
        tr = Trace(enabled=True)
        tr.emit(0.5, "app.attempt1", "comm_create", members=[0, 1])
        tr.emit(4.0, "app.attempt1", "rank_killed", rank=1)
        tr.emit(4.6, "veloc.rank1", "recover", version=10)
        tr.emit(9.0, "veloc.rank0", "checkpoint", seconds=0.1)
        return tr

    def tight_rules(self):
        return RuleSet([AlertRule(
            name="recovery-tight", metric="recovery_latency_s",
            op="<=", threshold=0.001, agg="p99", window_s=1e6,
            severity="critical")])

    def test_attached_session_fires_on_window_boundaries(self):
        tr = self.kill_trace()
        session = LiveSession(rules=self.tight_rules())
        session.attach(tr)
        tr.emit(12.0, "veloc.rank0", "checkpoint", seconds=0.1)
        alerts = session.finish()
        assert [a.rule for a in alerts] == ["recovery-tight"]
        # fired at the first window boundary after the recovery, not
        # only at finish()
        assert alerts[0].time < 12.0

    def test_replay_matches_attach(self):
        tr = self.kill_trace()
        live = LiveSession(rules=self.tight_rules())
        live.attach(tr)
        replayed = LiveSession(rules=self.tight_rules()).replay(list(tr))
        assert [a.to_dict() for a in live.finish()] == \
            [a.to_dict() for a in replayed.finish()]

    def test_finish_is_idempotent_and_rules_optional(self):
        session = LiveSession()
        session.replay(list(self.kill_trace()))
        assert session.finish() == []
        assert session.finish() == []
        assert session.aggregator.records_seen == 4
