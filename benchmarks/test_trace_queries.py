"""Trace recording cost on large flight records.

Every layer emits into the :class:`~repro.sim.Trace`; the monitors and
the post-mortem tooling subscribe to it or iterate it (none of them calls
``records(kind=)`` / ``first`` / ``last`` / ``count``, which scan).  These
benchmarks time what all of them pay: ``emit``, unbounded and through the
ring buffer (docs/PERFORMANCE.md has the ``BENCH_simulator.json``
workflow).
"""

import pytest

from repro.sim import Trace

N_RECORDS = 100_000


def big_trace(max_records=None):
    tr = Trace(max_records=max_records)
    for i in range(N_RECORDS):
        # a realistic kind mix: mostly bulk layer events, rare protocol ones
        kind = "checkpoint" if i % 50 == 0 else f"compute{i % 11}"
        tr.emit(float(i), f"veloc.rank{i % 16}", kind, version=i // 50)
    tr.emit(float(N_RECORDS), "fenix", "repair", generation=1)
    return tr


@pytest.mark.benchmark(group="trace")
def test_trace_emit_throughput(benchmark):
    """Recording cost, unbounded."""
    tr = benchmark(big_trace)
    assert len(tr) == N_RECORDS + 1


@pytest.mark.benchmark(group="trace")
def test_trace_ring_buffer_emit(benchmark):
    """Bounded recording: every emit past the bound evicts one record."""

    def run():
        return big_trace(max_records=10_000)

    tr = benchmark(run)
    assert len(tr) == 10_000
    assert tr.dropped == N_RECORDS + 1 - 10_000
    assert tr.dropped_window is not None
