"""A ring-bounded recording still aligns with a full one.

A 48-record ring buffer is the harshest recording configuration the
trace layer offers; because the engine excuses what the ring accounted
for, the alignment with an unbounded run must still come back clean.
"""

import pytest

from repro.align.engine import align
from repro.monitor.trace_io import trace_meta
from repro.telemetry import Telemetry

from tests.align.conftest import run_kill_cell


@pytest.fixture(scope="module")
def ring_trace():
    return run_kill_cell(telemetry=Telemetry(), trace_max_records=48)


def test_the_scenario_actually_evicts(ring_trace):
    assert ring_trace.dropped > 0


def test_a_48_record_ring_still_aligns(base_trace, ring_trace):
    records_a, records_b = list(base_trace), list(ring_trace)
    alignment = align(
        records_a, records_b,
        meta_a=trace_meta(base_trace), meta_b=trace_meta(ring_trace),
    )
    assert not alignment.divergent, [
        d.summary for d in alignment.divergences]
    # the evicted prefix is excused
    assert alignment.excused > 0
    # every surviving record of the ring matched one of the full
    # recording byte-for-byte
    assert alignment.matched == len(records_b)
