"""The one budget gate: kinds, the arithmetic, budgets, the output."""

import json
import math

import pytest

from repro.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_REGRESSION
from repro.report.__main__ import main
from repro.report.compare import (
    FLOOR,
    KINDS,
    METRICS,
    PROFILE_LEDGER,
    SCORECARD,
    Delta,
    budget_verdict,
    diff_rows,
    format_deltas,
    read_document,
    relative_move,
)


class TestRelativeChange:
    def test_growth_mode(self):
        assert relative_move(10.0, 11.0, "up") == pytest.approx(0.1)
        assert relative_move(10.0, 9.0, "up") == pytest.approx(-0.1)
        assert relative_move(10.0, 9.0, "down") == pytest.approx(0.1)

    def test_growth_zero_baseline(self):
        assert relative_move(0.0, 1.0, "up") == math.inf
        assert relative_move(0.0, -1.0, "down") == math.inf
        assert relative_move(0.0, -1.0, "up") == -math.inf
        assert relative_move(0.0, 0.0, "up") == 0.0

    def test_symmetric_mode_direction_agnostic(self):
        up = relative_move(10.0, 11.0, "either")
        down = relative_move(10.0, 9.0, "either")
        assert up == down == pytest.approx(0.1)

    def test_symmetric_two_zeros(self):
        assert relative_move(0.0, 0.0, "either") == 0.0

    def test_negative_baseline_is_scaled_by_its_magnitude(self):
        assert relative_move(-10.0, -9.0, "up") == pytest.approx(0.1)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            relative_move(1.0, 2.0, "sideways")


class TestCompareScalars:
    def test_union_sorted(self):
        rows = diff_rows(METRICS, {"b": 1.0, "a": 2.0},
                         {"a": 3.0, "c": 3.0}, 0.0)
        assert [d.name for d in rows] == ["a", "b", "c"]

    def test_equal_rows_are_not_listed(self):
        assert diff_rows(METRICS, {"a": 1.0, "b": 2.0},
                         {"a": 1.0, "b": 3.0}, 10.0) \
            == [Delta("b", 2.0, 3.0)]

    def test_absent_side_is_none(self):
        (d,) = diff_rows(METRICS, {"x": 1.0}, {}, 0.0)
        assert d.baseline == 1.0 and d.current is None
        assert d.structural


class TestOverBudget:
    def test_growth_only_fails_increases(self):
        rows = diff_rows(PROFILE_LEDGER, {"up": 1.0, "down": 1.0},
                         {"up": 1.2, "down": 0.5}, 0.1)
        assert [d.name for d in rows if d.over] == ["up"]

    def test_symmetric_fails_both_directions(self):
        rows = diff_rows(METRICS, {"up": 1.0, "down": 1.0},
                         {"up": 1.2, "down": 0.5}, 0.1)
        assert [d.name for d in rows if d.over] == ["down", "up"]

    def test_scorecard_direction_is_per_metric(self):
        base = {"s.efficiency.mean": 1.0, "s.overhead_pct.mean": 10.0}
        cur = {"s.efficiency.mean": 0.8, "s.overhead_pct.mean": 8.0}
        rows = diff_rows(SCORECARD, base, cur, 0.1)
        assert [d.name for d in rows if d.over] == ["s.efficiency.mean"]

    def test_budget_is_inclusive(self):
        (d,) = diff_rows(PROFILE_LEDGER, {"x": 1.0}, {"x": 1.5}, 0.5)
        assert not d.over

    def test_structural_always_fails(self):
        (d,) = diff_rows(METRICS, {"gone": 1.0}, {}, 10.0)
        assert d.over

    def test_abs_floor_suppresses_tiny_metrics(self):
        """The profile kind's floor, and only the profile kind's."""
        base = {"tiny": 1e-6, "gone": 1e-9}
        cur = {"tiny": FLOOR / 2}
        assert diff_rows(PROFILE_LEDGER, base, cur, 0.05) == []
        assert len(diff_rows(METRICS, base, cur, 0.05)) == 2


class TestFormatting:
    def test_marks_failures(self):
        rows = [Delta("a", 1.0, 2.0, over=True), Delta("b", 1.0, 1.01)]
        lines = format_deltas(rows)
        assert lines[0].endswith("(+100.0%)  OVER-BUDGET")
        assert "OVER-BUDGET" not in lines[1]

    def test_structural_wording(self):
        (line,) = format_deltas([Delta("a", None, 2.0, over=True)])
        assert "absent -> 2  (structural)" in line

    def test_empty(self):
        assert format_deltas([]) == []


class TestVerdict:
    def test_ok(self):
        code, text = budget_verdict([Delta("x", 1.0, 1.01)], 0.05,
                                    PROFILE_LEDGER)
        assert code == EXIT_OK
        assert text == "profile ledger: all rows within the 0.05 budget"

    def test_regression_names_offenders(self):
        code, text = budget_verdict(
            [Delta("x.mean", 1.0, 2.0, over=True)], 0.05, SCORECARD)
        assert code == EXIT_REGRESSION
        assert text.endswith("1 row(s) beyond the 0.05 budget: x.mean")


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def metrics(**counters):
    return {"merged": {"counters": counters, "gauges": {},
                       "histograms": {}}}


class TestReadDocument:
    def test_each_kind_is_recognised_by_its_key(self, tmp_path):
        sc = {"strategies": {"s": {"metrics": {"efficiency": {
            "n": 3, "mean": 0.9, "p95": 0.8}}}}}
        docs = [sc, {"schema": 1, "runs": []}, {"mean": {"compute": 1.0}},
                metrics(x=1.0)]
        kinds = [read_document(write(tmp_path / f"{i}.json", doc))[0]
                 for i, doc in enumerate(docs)]
        assert kinds == [SCORECARD, *KINDS]
        assert read_document(str(tmp_path / "0.json"))[1] \
            == {"s.efficiency.mean": 0.9, "s.efficiency.p95": 0.8}

    def test_metrics_rows(self, tmp_path):
        doc = {"merged": {
            "counters": {"c": 2},
            "gauges": {"g": {"high": 5, "last": 1}},
            "histograms": {"h": {"count": 3, "total": 0.5}}}}
        _kind, rows = read_document(write(tmp_path / "m.json", doc))
        assert rows == {"counter:c": 2.0, "gauge:g.high": 5.0,
                        "histogram:h.count": 3.0,
                        "histogram:h.total": 0.5}

    @pytest.mark.parametrize("doc", [
        {"schema": 1}, {"mean": [1, 2]}, {"mean": {"compute": "fast"}},
        {"merged": {"gauges": {"g": {}}}},
    ], ids=["no-known-key", "mean-not-a-map", "value-not-a-number",
            "gauge-without-high"])
    def test_unusable_documents_are_bad_input(self, doc, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", doc)
        assert main(["diff", bad, bad]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and bad in err


class TestBudgetFlag:
    """One ``--budget``; without it each kind's own default applies."""

    def test_default(self, tmp_path, capsys):
        a = write(tmp_path / "a.json", {"mean": {"compute": 1.00}})
        b = write(tmp_path / "b.json", {"mean": {"compute": 1.04}})
        assert main(["diff", a, b]) == EXIT_OK  # the ledger's 0.05
        a = write(tmp_path / "c.json", metrics(x=100.0))
        b = write(tmp_path / "d.json", metrics(x=101.0))
        assert main(["diff", a, b]) == EXIT_REGRESSION  # metrics' 0
        assert "beyond the 0 budget" in capsys.readouterr().err

    def test_budget_spelling(self, tmp_path):
        a = write(tmp_path / "a.json", metrics(x=100.0))
        b = write(tmp_path / "b.json", metrics(x=101.0))
        assert main(["diff", a, b, "--budget", "0.02"]) == EXIT_OK

    def test_tolerance_alias(self, tmp_path, capsys):
        """The alias is gone: it is a usage error, one line on stderr."""
        a = write(tmp_path / "a.json", metrics(x=1.0))
        with pytest.raises(SystemExit) as exit_:
            main(["diff", a, a, "--tolerance", "0.1"])
        assert exit_.value.code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "unrecognized arguments: --tolerance" in err
