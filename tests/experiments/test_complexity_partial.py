"""Complexity (Section VI-E) driver tests and the partial-rollback (VI-D2)
claims on the committed comparison."""

import pytest

from repro.experiments import analyze_complexity, claims
from repro.experiments.complexity import format_complexity, integration_line_counts


class TestComplexity:
    def test_mpi_call_sites_counted(self):
        report = analyze_complexity()
        assert report.total_mpi_call_sites > 0
        heatdis = report.module("heatdis")
        assert heatdis.mpi_call_sites >= 5  # halo sends/recvs + reductions

    def test_every_app_module_analyzed(self):
        report = analyze_complexity()
        assert {m.module for m in report.modules} == {
            "heatdis", "heatdis_manual", "minimd",
        }

    def test_manual_integration_needs_more_resilience_lines(self):
        """The KR-managed main concentrates resilience code; the manual
        variant spreads VeloC bookkeeping through the app."""
        counts = integration_line_counts()
        assert counts["heatdis_manual"] > 0
        assert counts["heatdis_kr"] > 0

    def test_format(self):
        text = format_complexity(analyze_complexity())
        assert "MPI call sites" in text


class TestPartialRollback:
    """Claim 19 on the committed 8-rank comparison."""

    @pytest.fixture(scope="class")
    def result(self, figures):
        return figures.evidence("partial")

    def test_both_recover_and_converge(self, result):
        assert claims.claim_19_keeping_survivor_data_speeds_recovery(result)

    def test_partial_rollback_speedup(self, result):
        assert claims.claim_19_keeping_survivor_data_speeds_recovery(result)
