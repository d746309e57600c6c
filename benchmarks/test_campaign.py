"""Extension study: strategies under a campaign of random failures.

Not a paper figure -- it connects the paper's Blue-Waters motivation
(memoryless node failures in production) to its evaluation by measuring
whole-campaign efficiency instead of a single controlled failure.
"""

import pytest

from benchmarks.conftest import run_once, save_table
from repro.experiments import campaign_table, run_campaign_grid


@pytest.mark.benchmark(group="campaign")
def test_failure_campaign(benchmark, results_dir):
    ledger = run_once(
        benchmark, lambda: run_campaign_grid(scales=(8,), seeds=(7,)))
    save_table(results_dir, "campaign.txt", campaign_table(ledger))
    (relaunch,) = ledger.group("kr_veloc")
    (fenix,) = ledger.group("fenix_kr_veloc")
    ideal = ledger.ideal_for(8)
    # the same failures hit both configurations
    assert relaunch.failures >= 1
    assert fenix.failures >= 1
    # online recovery wins the campaign, without any relaunch
    assert fenix.attempts == 1
    assert relaunch.attempts == relaunch.failures + 1
    assert fenix.efficiency(ideal) > relaunch.efficiency(ideal)
