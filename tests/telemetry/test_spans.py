"""Tracer/span tests: nesting, error capture, the disabled fast path."""

import pytest

from repro.apps.heatdis import HeatdisConfig
from repro.experiments.common import paper_env
from repro.fenix.errors import FenixLongJump
from repro.harness.runner import run_heatdis_job
from repro.sim.failures import (
    IterationFailure,
    RankKilledError,
    TimedFailure,
)
from repro.telemetry.collector import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import NULL_SPAN, SpanRecord, Tracer
from tests.telemetry.reference_spans import ReferenceTelemetry


class FakeClock:
    def __init__(self):
        self.now = 0.0


class TestSpans:
    def test_span_records_times(self):
        clock = FakeClock()
        tr = Tracer(clock)
        with tr.span("rank0", "work"):
            clock.now = 2.5
        rec = tr.first("work")
        assert rec.start == 0.0
        assert rec.end == 2.5
        assert rec.duration == 2.5
        assert not rec.open

    def test_nesting_sets_parent(self):
        clock = FakeClock()
        tr = Tracer(clock)
        with tr.span("rank0", "outer"):
            with tr.span("rank0", "inner"):
                pass
        outer = tr.first("outer")
        inner = tr.first("inner")
        assert inner.parent == outer.sid
        assert outer.parent is None

    def test_sibling_sources_do_not_nest(self):
        tr = Tracer(FakeClock())
        with tr.span("rank0", "a"):
            with tr.span("rank1", "b"):
                pass
        assert tr.first("b").parent is None

    def test_instant_parents_to_open_span(self):
        tr = Tracer(FakeClock())
        with tr.span("rank0", "outer"):
            inst = tr.instant("rank0", "marker", key=1)
        assert inst.parent == tr.first("outer").sid
        assert inst.start == inst.end

    def test_error_capture(self):
        clock = FakeClock()
        tr = Tracer(clock)
        try:
            with tr.span("rank0", "doomed"):
                clock.now = 1.0
                raise ValueError("boom")
        except ValueError:
            pass
        rec = tr.first("doomed")
        assert rec.error == "ValueError"
        assert rec.end == 1.0

    def test_kill_closes_orphaned_children(self):
        """Closing an outer span force-closes descendants a killed
        process never unwound."""
        clock = FakeClock()
        tr = Tracer(clock)
        outer = tr.span("rank0", "outer")
        inner = tr.span("rank0", "inner")
        outer.__enter__()
        inner.__enter__()
        clock.now = 3.0
        # simulate the unwind skipping inner's __exit__
        outer.__exit__(RuntimeError, RuntimeError("killed"), None)
        assert tr.first("inner").end == 3.0
        assert tr.first("inner").error == "RuntimeError"
        assert tr.open_spans("rank0") == []

    def test_span_closed_by_its_ancestor_keeps_that_end(self):
        """A block that exits after an ancestor already closed its span
        must not move the span's end past the ancestor's."""
        clock = FakeClock()
        tr = Tracer(clock)
        outer = tr.span("rank0", "outer").__enter__()
        inner = tr.span("rank0", "inner").__enter__()
        clock.now = 2.0
        outer.__exit__(RuntimeError, RuntimeError("killed"), None)
        assert (inner.end, inner.error) == (2.0, "RuntimeError")
        clock.now = 5.0
        inner.__exit__(None, None, None)
        assert (inner.end, inner.error) == (2.0, "RuntimeError")
        inner.__exit__(ValueError, ValueError("late"), None)
        assert (inner.end, inner.error) == (2.0, "RuntimeError")
        assert outer.end == 2.0 and tr.open_spans() == []
        # and a span opened afterwards nests under nothing stale
        with tr.span("rank0", "next") as nxt:
            pass
        assert nxt.parent is None and nxt.start == nxt.end == 5.0

    def test_interleaved_blocks_on_one_source_keep_their_own_end(self):
        """Two processes sharing a track: a clean exit of the first pops the
        other's span too, but that block is still running -- its own exit
        stamps its end, as on the parent commit."""
        clock = FakeClock()
        tr = Tracer(clock)
        first = tr.span("job", "first").__enter__()
        second = tr.span("job", "second").__enter__()
        clock.now = 1.0
        first.__exit__(None, None, None)
        clock.now = 4.0
        second.__exit__(None, None, None)
        assert (first.end, second.end) == (1.0, 4.0)
        assert first.error is None and second.error is None
        assert tr.open_spans() == []

    @pytest.mark.parametrize("exc", [
        FenixLongJump("repair"), RankKilledError(2, "injected")])
    def test_unwinding_closes_descendants_with_the_error_name(self, exc):
        clock = FakeClock()
        tr = Tracer(clock)
        with pytest.raises(type(exc)):
            with tr.span("rank2", "kr.region"):
                with tr.span("rank2", "compute"):
                    with tr.span("rank2", "mpi.sendrecv"):
                        clock.now = 1.5
                        raise exc
        assert [(s.name, s.end, s.error) for s in tr.spans] == [
            (name, 1.5, type(exc).__name__)
            for name in ("kr.region", "compute", "mpi.sendrecv")]
        assert tr.open_spans() == []

    def test_the_record_is_the_context_manager(self):
        tr = Tracer(FakeClock())
        span = tr.span("rank0", "work", version=3)
        assert isinstance(span, SpanRecord) and tr.spans == []  # inert
        with span as entered:
            assert entered is span and tr.spans == [span] and span.open
        assert span.sid == 1 and span["version"] == 3 and not span.open
        assert not hasattr(span, "__dict__")

    def test_find_and_sources(self):
        tr = Tracer(FakeClock())
        with tr.span("rank0", "x", version=1):
            pass
        tr.instant("mpi", "revoke")
        assert len(tr.find(name="x")) == 1
        assert tr.find(source="mpi")[0].name == "revoke"
        assert tr.sources() == ["mpi", "rank0"]
        assert len(tr) == 2

    def test_unbound_clock_reads_zero(self):
        tr = Tracer()
        assert tr.now == 0.0


class TestTelemetryFacade:
    def test_disabled_span_is_shared_null(self):
        tel = Telemetry(enabled=False)
        assert tel.span("rank0", "x") is NULL_SPAN
        assert tel.span("rank1", "y") is NULL_SPAN
        with tel.span("rank0", "x"):
            pass
        assert len(tel.tracer) == 0

    def test_disabled_metrics_record_nothing(self):
        tel = Telemetry(enabled=False)
        tel.inc("a")
        tel.set_gauge("b", 1)
        tel.observe("c", 1.0)
        tel.instant("rank0", "e")
        assert len(tel.metrics) == 0
        assert len(tel.tracer) == 0

    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False

    def test_enabled_records(self):
        tel = Telemetry(enabled=True)
        clock = FakeClock()
        tel.bind(clock)
        with tel.span("rank0", "work", version=3):
            clock.now = 1.0
        tel.inc("events")
        assert tel.tracer.first("work")["version"] == 3
        assert tel.metrics.counter("events").value == 1

    def test_rank_metrics_merge(self):
        tel = Telemetry(enabled=True)
        tel.rank_metrics(0).inc("bytes", 10)
        tel.rank_metrics(1).inc("bytes", 20)
        tel.inc("revokes", 1)
        merged = tel.merged_metrics()
        assert merged.counter("bytes").value == 30
        assert merged.counter("revokes").value == 1

    def test_metrics_summary_shape(self):
        tel = Telemetry(enabled=True)
        tel.rank_metrics(2).inc("x")
        summary = tel.metrics_summary()
        assert set(summary) == {"merged", "job", "ranks"}
        assert "2" in summary["ranks"]

    def test_clear(self):
        tel = Telemetry(enabled=True)
        tel.bind(FakeClock())
        tel.instant("rank0", "e")
        tel.inc("c")
        tel.rank_metrics(0).inc("d")
        tel.clear()
        assert len(tel.tracer) == 0
        assert tel.metrics.counter("c").value == 0.0
        assert tel.ranks == {}


class TestAgainstTheHandleTracer:
    """A seeded killed job on the real tracer and on the parent's: a
    kill between two iterations (survivors long-jump out of their spans)
    and one in mid-iteration (the victim's own spans unwind too)."""

    PLANS = {
        "between_iterations":
            lambda: IterationFailure.between_checkpoints(2, 10, 1),
        "mid_iteration": lambda: TimedFailure([(2, 4.2)]),
    }

    @staticmethod
    def run(telemetry, plan):
        env = paper_env(5, n_spares=1, pfs_servers=2)
        cfg = HeatdisConfig(n_iters=30, modeled_bytes_per_rank=16e6,
                            compute_jitter=0.05)
        report = run_heatdis_job(env, "fenix_kr_veloc", 4, cfg, 10,
                                 plan=plan, telemetry=telemetry)
        assert report.failures == 1
        return telemetry.tracer

    @staticmethod
    def rows(records):
        return [(r.sid, r.source, r.name, r.start, r.end, r.parent,
                 r.fields, r.error) for r in records]

    @pytest.fixture(scope="class", params=sorted(PLANS))
    def tracers(self, request):
        plan = self.PLANS[request.param]
        return (self.run(Telemetry(), plan()),
                self.run(ReferenceTelemetry(), plan()), request.param)

    def test_every_span_and_instant_is_identical(self, tracers):
        real, reference, _ = tracers
        assert len(real.spans) > 500
        assert self.rows(real.spans) == self.rows(reference.spans)
        assert self.rows(real.instants) == self.rows(reference.instants)

    def test_the_kill_unwinds_spans_with_the_error_name(self, tracers):
        real, _, plan = tracers
        errors = {s.error for s in real.spans if s.error}
        expected = {"FenixLongJump"}
        if plan == "mid_iteration":
            expected.add("RankKilledError")
        assert expected <= errors
        assert real.open_spans() == []

    def test_no_span_outlives_its_parent(self, tracers):
        real, _, _ = tracers
        by_sid = {s.sid: s for s in real.spans}
        for span in real.spans:
            parent = by_sid.get(span.parent)
            if parent is not None:
                assert parent.start <= span.start <= span.end <= parent.end
