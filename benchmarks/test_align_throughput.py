"""Alignment-engine throughput on large synthetic trace pairs.

The differential layer is post-mortem tooling, but ``align check``
runs inside CI and campaign audits align every cell, so keying and
alignment must stay linear and fast on traces far larger than the
figure runs produce.  The streams here tile the Section 4 shrink
protocol shape -- per-rank KR region begin/commit per epoch, periodic
VeloC checkpoints -- to ~14k records per side (group ``align`` in
``BENCH_simulator.json``; see docs/PERFORMANCE.md).
"""

import pytest

from repro.align.engine import align, first_divergence_report
from repro.align.keying import key_records
from repro.sim.trace import TraceRecord

N_EPOCHS = 400
RANKS = 16
CKPT_EVERY = 10


def protocol_stream(drift_epoch=None):
    """One synthetic protocol stream; ``drift_epoch`` plants a value
    drift in that epoch's checkpoints (the root-cause benchmark)."""
    records = []
    t = 0.0
    for epoch in range(N_EPOCHS):
        for rank in range(RANKS):
            t += 1e-3
            records.append(TraceRecord(
                time=t, source=f"kr.rank{rank}", kind="kr_region_begin",
                fields={"label": "bench", "iteration": epoch}))
            records.append(TraceRecord(
                time=t, source=f"kr.rank{rank}", kind="kr_region_commit",
                fields={"label": "bench", "iteration": epoch}))
        if epoch % CKPT_EVERY == CKPT_EVERY - 1:
            for rank in range(RANKS):
                t += 1e-3
                nbytes = (1 << 20) + (
                    rank + 1 if drift_epoch == epoch else 0)
                records.append(TraceRecord(
                    time=t, source=f"veloc.rank{rank}", kind="checkpoint",
                    fields={"version": epoch // CKPT_EVERY,
                            "nbytes": nbytes}))
    return records


@pytest.mark.benchmark(group="align")
def test_align_keying_throughput(benchmark):
    """Canonical keys + canonical values over one large stream."""
    records = protocol_stream()
    keyed = benchmark(key_records, records)
    assert len(keyed) == len(records)
    assert len({kr.key for kr in keyed}) == len(records)


@pytest.mark.benchmark(group="align")
def test_align_identical_pair_throughput(benchmark):
    """The audit hot path: two identical streams, full alignment."""
    a, b = protocol_stream(), protocol_stream()
    alignment = benchmark(align, a, b)
    assert not alignment.divergent
    assert alignment.matched == len(a)


@pytest.mark.benchmark(group="align")
def test_align_root_cause_throughput(benchmark):
    """Divergent pair: alignment plus the first-divergence report."""
    # a checkpoint epoch halfway through the run
    a, b = protocol_stream(), protocol_stream(
        drift_epoch=N_EPOCHS // 2 - 1)

    def run():
        alignment = align(a, b)
        return alignment, first_divergence_report(alignment, a, b)

    alignment, report = benchmark(run)
    assert alignment.counts()["value"] == RANKS
    assert report["first"]["layer"] == "veloc"
    assert report["first"]["fields"] == ["nbytes"]
