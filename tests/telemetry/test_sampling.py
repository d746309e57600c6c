"""Overhead-bounded sampling: decisions, exemptions, exact accounting."""

import pytest

from repro.sim.trace import Trace
from repro.telemetry import SamplingPolicy, SpanSampler, Telemetry
from repro.telemetry.sampling import (
    SAMPLEABLE_SPANS,
    record_sampleable,
    span_sampleable,
)
from repro.util.errors import ConfigError
from repro.vocabulary import SAMPLEABLE_TRACE_KINDS

#: kinds the monitor state machines consume -- none may ever be sampled
PROTECTED_KINDS = (
    "rank_killed", "rank_dead", "revoke", "detect", "gate_arrive",
    "shrink", "repair", "agree", "role", "spare_activated", "abort",
    "comm_create", "checkpoint", "recover", "flush_submit", "flush_done",
    "imr_store", "imr_restore", "kr_region_commit",
)

#: span names the profile layer's recovery walk depends on
PROTECTED_SPANS = (
    "fenix.repair", "fenix.init", "veloc.checkpoint", "veloc.recover",
    "imr.store", "imr.restore", "kr.restore", "kr.commit", "recompute",
    "job.launch", "job.relaunch",
)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplingPolicy(head=-1)
        with pytest.raises(ConfigError):
            SamplingPolicy(stride=0)
        with pytest.raises(ConfigError):
            SamplingPolicy(budget_per_kind=0)
        with pytest.raises(ConfigError):
            SamplingPolicy(stride=8, max_stride=4)

    def test_frozen_and_hashable(self):
        assert hash(SamplingPolicy()) == hash(SamplingPolicy())
        assert SamplingPolicy.tightest() != SamplingPolicy()


class TestExemptions:
    def test_protected_kinds_and_spans_are_never_sampleable(self):
        for kind in PROTECTED_KINDS:
            assert not record_sampleable(kind), kind
        for name in PROTECTED_SPANS:
            assert not span_sampleable(name), name

    def test_default_deny(self):
        # a name invented tomorrow is protected until proven safe
        assert not span_sampleable("some.new.span")
        assert not record_sampleable("some_new_kind")
        assert span_sampleable("compute")
        assert span_sampleable("mpi.allreduce")
        assert record_sampleable("kr_region_begin")

    def test_sampler_never_drops_protected_names(self):
        sampler = SpanSampler(SamplingPolicy(head=0, stride=1000))
        for _ in range(5000):
            assert sampler.keep_span("fenix.repair")
            assert sampler.keep_record("rank_killed")
        assert sampler.dropped_total == 0


class TestDecisions:
    def test_head_then_stride(self):
        sampler = SpanSampler(SamplingPolicy(head=2, stride=3,
                                             budget_per_kind=1000))
        kept = [i for i in range(14) if sampler.keep_span("compute")]
        # first 2 always; then every 3rd occurrence past the head
        assert kept == [0, 1, 2, 5, 8, 11]

    def test_stride_doubles_per_budget(self):
        sampler = SpanSampler(SamplingPolicy(head=0, stride=2,
                                             budget_per_kind=2,
                                             max_stride=8))
        kept = [i for i in range(40) if sampler.keep_span("compute")]
        # stride 2 for 2 keeps, then 4 for 2 keeps, then pinned at 8
        assert kept[:4] == [0, 2, 4, 8]
        gaps = {b - a for a, b in zip(kept[4:], kept[5:])}
        assert gaps == {8}

    def test_determinism(self):
        names = (["compute"] * 50 + ["mpi.send", "kr.region"] * 30) * 3
        a, b = (SpanSampler(SamplingPolicy.tightest()) for _ in range(2))
        assert [a.keep_span(n) for n in names] == \
            [b.keep_span(n) for n in names]

    def test_per_kind_counters_are_exact(self):
        sampler = SpanSampler(SamplingPolicy(head=1, stride=4))
        total = 100
        kept = sum(1 for _ in range(total) if sampler.keep_span("compute"))
        assert kept + sampler.dropped_spans["compute"] == total
        assert sampler.summary()["dropped_span_total"] == \
            sampler.dropped_span_total
        assert sampler.summary()["policy"] == sampler.policy.to_dict()


class TestTelemetryIntegration:
    def test_sampled_spans_take_the_null_path(self):
        tel = Telemetry(sampler=SpanSampler(SamplingPolicy(head=1,
                                                           stride=1000)))
        tel.tracer.bind(type("C", (), {"now": 0.0})())
        with tel.span("rank0", "compute") as sp:
            assert sp is not None
        with tel.span("rank0", "compute"):
            pass  # head=1 keeps one more: the first post-head occurrence
        with tel.span("rank0", "compute"):
            pass  # third occurrence is sampled out: the no-op span
        assert len(tel.tracer.spans) == 2
        assert tel.sampler.dropped_spans["compute"] == 1
        # protected instants always record
        for _ in range(10):
            assert tel.instant("fenix", "fenix.detect") is not None

    def test_trace_counts_sampled_records_separately(self):
        sampler = SpanSampler(SamplingPolicy(head=2, stride=10))
        tr = Trace(enabled=True, sampler=sampler)
        for i in range(30):
            tr.emit(float(i), "kr.rank0", "kr_region_begin", iteration=i)
            tr.emit(float(i), "app", "rank_killed", rank=0)
        assert tr.count("rank_killed") == 30   # protected: complete
        kept = tr.count("kr_region_begin")
        assert kept + tr.sampled_out == 30
        assert tr.sampled_out > 0
        assert tr.dropped == 0                 # sampling is not eviction
        assert tr.sampled_window is not None
        lo, hi = tr.sampled_window
        assert 0.0 <= lo <= hi <= 29.0
        tr.clear()
        assert tr.sampled_out == 0 and tr.sampled_window is None

    def test_sampleable_sets_stay_disjoint_from_monitor_needs(self):
        assert not (set(PROTECTED_KINDS) & SAMPLEABLE_TRACE_KINDS)
        assert not (set(PROTECTED_SPANS) & SAMPLEABLE_SPANS)
