"""A finished job is freed when its report is.

Every object a job builds -- engine, world, Fenix gates, KR contexts,
VeloC clients and snapshots, Kokkos views, telemetry spans -- must be
freed by reference counting once the report and the plan go: with the
cyclic collector off, ``gc.collect()`` then finds nothing.  On failure the
assertion lists the type counts of what was left for the collector.
"""

from collections import Counter

import pytest

from repro.cli import build_job
from repro.monitor.trace_io import JsonlTraceSink
from repro.telemetry import Telemetry
from tests.sim.test_garbage import cyclic_garbage

RULES = "examples/slo_rules.json"

JOBS = [
    ("heatdis", "fenix_kr_veloc", 2),
    ("heatdis", "fenix_kr_imr", 2),
    ("heatdis", "kr_veloc", 2),  # the kill is a relaunch
    ("heatdis", "fenix_veloc", None),  # the manual main, no KR
    ("minimd", "fenix_kr_veloc", 2),
]


def assert_job_frees_itself(run):
    """``run()`` returns ``(report, plan)``; both go before the count."""
    def scenario():
        report, plan = run()
        outcome = (report.attempts, report.failures, sorted(report.results))
        # what a caller may still read off a live result survives the
        # job's teardown (the KR context's Figure-7 census, say)
        kr = report.results[0].get("kr")
        if kr is not None:
            assert kr.last_census.checkpointed
        del report, plan, kr
        return outcome

    outcome, counts = cyclic_garbage(scenario)
    assert counts == Counter(), f"left for the collector: {dict(counts)}"
    return outcome


@pytest.mark.parametrize("app, strategy, kill_rank", JOBS,
                         ids=lambda v: str(v))
def test_a_finished_job_leaves_no_cycles(app, strategy, kill_rank):
    def run():
        job = build_job(app, strategy, 4, 20, 5, kill_rank=kill_rank)
        return job(), job.keywords["plan"]

    attempts, failures, ranks = assert_job_frees_itself(run)
    assert ranks == [0, 1, 2, 3]
    assert failures == (kill_rank is not None)
    assert attempts == (2 if strategy == "kr_veloc" else 1)


def test_a_job_with_every_observer_leaves_no_cycles(tmp_path):
    def run():
        job = build_job("heatdis", "fenix_kr_veloc", 4, 20, 5, kill_rank=2)
        with JsonlTraceSink(str(tmp_path / "run.trace.jsonl")) as sink:
            report = job(telemetry=Telemetry(), strict_monitor=True,
                         profile=True, rules=RULES, trace_sink=sink,
                         determinism_audit=True)
        assert report.profile and report.telemetry
        assert not report.violations and not report.divergences
        return report, job.keywords["plan"]

    assert assert_job_frees_itself(run) == (1, 1, [0, 1, 2, 3])
