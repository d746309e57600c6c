"""Suite-wide pytest options (test tooling; the product has no such flag)."""


def pytest_addoption(parser):
    parser.addoption(
        "--kill-points-wide", action="store_true", default=False,
        help="tests/harness/test_kill_points.py: enumerate all three Fenix "
             "strategies x 0/1/2 spares x every instant and draw 300 "
             "two-kill examples (CI's kill-points job; minutes, not "
             "seconds), leaving each failing point's JSONL trace under "
             "kill-points-failures/",
    )
