"""Host cost of the observers' own hot paths (group ``observers``).

The end-to-end benchmark quotes what watching costs as one number per
observer (``telemetry.enabled_pct`` and friends over the bare 8-rank kill
job); these rows time the four paths that number is made of, each on the
input the observed job feeds it, so a regression names its path before
anyone opens a profiler:

- opening and closing a span (``Telemetry.span`` -> ``__enter__`` ->
  ``__exit__``), over the synthetic stream of ``test_profile_overhead``;
- one ``JsonlTraceSink`` write per record of a recorded 8-rank kill job
  (encode, write, flush -- the flush is the point of the sink);
- a ``MonitorSuite`` replay of the same records (two in three are
  ``kr_region_*``, which no monitor consumes);
- ``audit_traces`` on the recording and its identical replay -- the
  determinism audit's comparison, which the compare-first pass of
  ``repro.align.engine.align`` answers without keying either trace.

All four are in ``BENCH_simulator.json`` and under CI's 30% gate.
"""

import pytest

from benchmarks.test_profile_overhead import (
    N_RANKS,
    N_SPANS_PER_RANK,
    synthetic_stream,
)
from repro.align.engine import audit_traces
from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.harness.runner import run_heatdis_job
from repro.monitor import MonitorSuite
from repro.monitor.trace_io import JsonlTraceSink
from repro.sim.failures import IterationFailure

RANKS = 8
INTERVAL = 9
N_ITERS = 60


class _KeepTrace:
    """A ``trace_sink`` that only keeps a reference to the run's trace."""

    trace = None

    def attach(self, trace):
        self.trace = trace


def record_kill_job():
    """The observed workload's job: 8 ranks, a checkpoint every 9 of 60
    iterations, one kill late in a checkpoint gap; returns its Trace."""
    keep = _KeepTrace()
    report = run_heatdis_job(
        paper_env(RANKS + 1, pfs_servers=1), "fenix_kr_veloc", RANKS,
        HeatdisConfig(local_rows=8, cols=16, modeled_bytes_per_rank=1e9,
                      n_iters=N_ITERS, compute_jitter=0.05),
        INTERVAL,
        plan=IterationFailure.between_checkpoints(3, INTERVAL, 2, 0.95),
        trace_sink=keep,
    )
    assert report.failures == 1 and report.attempts == 1
    return keep.trace


@pytest.fixture(scope="module")
def recorded():
    return record_kill_job()


@pytest.mark.benchmark(group="observers", disable_gc=True)
def test_span_open_close(benchmark):
    """~16k spans (plus 8 instants) through the telemetry front door.

    Collector off while timing: every round leaves 16k live records
    behind, and whether a round pays for a full collection is not a
    property of the span path."""
    tel = benchmark.pedantic(synthetic_stream, rounds=10, iterations=1,
                             warmup_rounds=1)
    spans = tel.tracer.spans
    assert len(spans) >= N_RANKS * (N_SPANS_PER_RANK // 4) * 3
    assert all(s.end is not None for s in spans)
    assert tel.tracer.open_spans() == []


@pytest.mark.benchmark(group="observers")
def test_jsonl_sink_per_record_write(benchmark, recorded, tmp_path):
    """Every record of the job through an attached sink, flush per line."""
    records = list(recorded)
    path = str(tmp_path / "sink.trace.jsonl")

    def write_all():
        with JsonlTraceSink(path) as sink:
            return sink.replay(records).records_written

    written = benchmark.pedantic(write_all, rounds=30, iterations=1,
                                 warmup_rounds=1)
    assert written == len(records)


@pytest.mark.benchmark(group="observers")
def test_monitor_suite_replay(benchmark, recorded):
    records = list(recorded)

    def replay():
        suite = MonitorSuite().replay(records)
        suite.finish()
        return suite.violations

    # a third of a millisecond a replay: twenty to a round
    assert benchmark.pedantic(replay, rounds=40, iterations=20,
                              warmup_rounds=1) == []


@pytest.mark.benchmark(group="observers")
def test_audit_identical_pair(benchmark, recorded):
    """What the determinism audit pays after the replay has run."""
    replayed = record_kill_job()
    assert len(replayed) == len(recorded) > 500
    assert benchmark.pedantic(audit_traces, args=(recorded, replayed),
                              rounds=40, iterations=5,
                              warmup_rounds=1) == []
