"""Benchmark configuration.

Every benchmark regenerates one element of the paper's evaluation and
writes the resulting table under ``results/``.  Simulations are
deterministic, so each benchmark runs once (``pedantic`` with one round);
the pytest-benchmark timing measures the *simulator's* cost, while the
scientific output is the table.

By default benchmarks run at a reduced scale that preserves the paper's
node : PFS ratio (16 ranks, 1 I/O server, versus the paper's 64 ranks on
a 4-server Lustre partition).  Set ``REPRO_FULL_SCALE=1`` for the paper's
full node counts; those tables go to ``results/full_scale/``.
"""

import os
import pathlib

import pytest

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

#: paper-scale tables live apart from the default ones
RESULTS_DIR = (pathlib.Path(__file__).resolve().parent.parent / "results"
               / ("full_scale" if FULL_SCALE else ""))

#: Figure 5 scale
FIG5_RANKS = 64 if FULL_SCALE else 16
FIG5_PFS = 4 if FULL_SCALE else 1
FIG5_WEAK_NODES = [4, 16, 64] if FULL_SCALE else [4, 8, 16]

#: Figure 6 scale
FIG6_RANKS = [8, 27, 64] if FULL_SCALE else [4, 8, 16]
FIG6_PFS = 4 if FULL_SCALE else 1


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_table(results_dir, name: str, text: str) -> None:
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def run_once(benchmark, fn):
    """Run a deterministic experiment exactly once under the benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
