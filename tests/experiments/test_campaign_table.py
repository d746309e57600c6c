"""campaign_table: a one-scale ledger rendered as results/campaign.txt."""

from repro.experiments.campaign import campaign_table
from repro.report.ledger import CampaignLedger, RunRecord


def record(strategy, seed, wall, attempts, failures):
    return RunRecord(
        label=f"{strategy}/r8/s{seed}", strategy=strategy, app="heatdis",
        n_ranks=8, seed=seed, wall_time=wall, attempts=attempts,
        failures=failures,
    )


def test_rows_are_the_failure_runs_whatever_their_seed():
    """The ``none`` baseline gives the ideal line and no row; a grid run
    at seed 0 (a legal seed, as in the ledger's own views) keeps its row."""
    ledger = CampaignLedger()
    ledger.add_ideal(8, 50.0)
    ledger.add_run(record("none", 0, 50.0, 1, 0))
    ledger.add_run(record("kr_veloc", 0, 80.0, 4, 3))
    ledger.add_run(record("fenix_kr_veloc", 0, 62.5, 1, 3))
    assert campaign_table(ledger).splitlines()[1:] == [
        "  ideal (no failures, no resilience):    50.00 s",
        "  strategy         wall(s)  failures  attempts  efficiency",
        "  kr_veloc           80.00         3         4      62.5%",
        "  fenix_kr_veloc     62.50         3         1      80.0%",
    ]
