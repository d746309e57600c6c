"""Unit tests for the discrete-event engine core."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Engine, ProcessKilled
from repro.util.errors import DeadlockError, SimulationError


def run_collect(engine):
    engine.run()
    return engine.now


class TestClockAndOrdering:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_single_timeout_advances_clock(self):
        eng = Engine()

        def proc():
            yield eng.timeout(2.5)

        eng.process(proc())
        assert run_collect(eng) == 2.5

    def test_fifo_for_simultaneous_events(self):
        eng = Engine()
        order = []

        def make(tag):
            def proc():
                yield eng.timeout(1.0)
                order.append(tag)

            return proc

        for tag in ("a", "b", "c"):
            eng.process(make(tag)())
        eng.run()
        assert order == ["a", "b", "c"]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []

        def proc(delay, tag):
            yield eng.timeout(delay)
            order.append((eng.now, tag))

        eng.process(proc(3.0, "late"))
        eng.process(proc(1.0, "early"))
        eng.process(proc(2.0, "mid"))
        eng.run()
        assert order == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]

    def test_run_until_stops_clock(self):
        eng = Engine()

        def proc():
            yield eng.timeout(10.0)

        eng.process(proc())
        eng.run(until=4.0)
        assert eng.now == 4.0

    def test_negative_timeout_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.timeout(-1.0)

    @given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=20))
    def test_completion_times_sorted(self, delays):
        eng = Engine()
        seen = []

        def proc(d):
            yield eng.timeout(d)
            seen.append(eng.now)

        for d in delays:
            eng.process(proc(d))
        eng.run()
        assert seen == sorted(seen)
        assert eng.now == pytest.approx(max(delays))


class TestProcessLifecycle:
    def test_return_value_via_join(self):
        eng = Engine()

        def child():
            yield eng.timeout(1.0)
            return 42

        results = []

        def parent():
            value = yield eng.process(child())
            results.append(value)

        eng.process(parent())
        eng.run()
        assert results == [42]

    def test_nested_yield_from(self):
        eng = Engine()

        def inner():
            yield eng.timeout(1.0)
            return "inner-done"

        def outer():
            value = yield from inner()
            assert value == "inner-done"
            yield eng.timeout(1.0)
            return "outer-done"

        proc = eng.process(outer())
        eng.run()
        assert proc.value == "outer-done"
        assert eng.now == 2.0

    def test_unhandled_process_exception_surfaces(self):
        eng = Engine()

        def bad():
            yield eng.timeout(1.0)
            raise ValueError("boom")

        eng.process(bad())
        with pytest.raises(SimulationError, match="boom"):
            eng.run()

    def test_exception_consumed_by_joiner_is_handled(self):
        eng = Engine()
        caught = []

        def bad():
            yield eng.timeout(1.0)
            raise ValueError("boom")

        child = eng.process(bad())

        def parent():
            try:
                yield child
            except ValueError as exc:
                caught.append(str(exc))

        eng.process(parent())
        eng.run()
        # the parent joined it: handled, so run() above raised nothing
        assert caught == ["boom"]

    def test_kill_blocked_process(self):
        eng = Engine()
        killed = []

        def victim():
            try:
                yield eng.timeout(100.0)
            except ProcessKilled:
                killed.append(eng.now)
                raise

        proc = eng.process(victim())

        def killer():
            yield eng.timeout(5.0)
            proc.kill()

        eng.process(killer())
        with pytest.raises(SimulationError):
            eng.run()
        assert killed == [5.0]
        assert not proc.alive

    def test_kill_finished_process_is_noop(self):
        eng = Engine()

        def quick():
            yield eng.timeout(1.0)
            return "ok"

        proc = eng.process(quick())
        eng.run()
        proc.kill()  # must not raise or re-trigger
        assert proc.value == "ok"

    def test_yielding_non_event_fails_process(self):
        eng = Engine()

        def bad():
            yield 42

        eng.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            eng.run()

    def test_non_generator_rejected(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.process(lambda: None)


class TestEventsAndCombinators:
    def test_event_double_trigger_rejected(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")

    def test_late_subscription_still_fires(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("payload")
        got = []

        def late():
            yield eng.timeout(3.0)
            value = yield ev
            got.append((eng.now, value))

        eng.process(late())
        eng.run()
        assert got == [(3.0, "payload")]

    def test_all_of_waits_for_slowest(self):
        eng = Engine()
        results = []

        def proc():
            evs = [eng.timeout(1.0, "a"), eng.timeout(3.0, "b"), eng.timeout(2.0, "c")]
            values = yield eng.all_of(evs)
            results.append((eng.now, values))

        eng.process(proc())
        eng.run()
        assert results == [(3.0, ["a", "b", "c"])]

    def test_all_of_empty_succeeds_immediately(self):
        eng = Engine()
        done = []

        def proc():
            values = yield eng.all_of([])
            done.append(values)

        eng.process(proc())
        eng.run()
        assert done == [[]]

    def test_all_of_propagates_failure(self):
        eng = Engine()
        caught = []

        def proc():
            ok = eng.timeout(5.0)
            bad = eng.event()
            bad.fail(RuntimeError("child failed"), delay=1.0)
            try:
                yield eng.all_of([ok, bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(proc())
        eng.run()
        assert caught == ["child failed"]

    def test_any_of_returns_first(self):
        eng = Engine()
        results = []

        def proc():
            idx, value = yield eng.any_of(
                [eng.timeout(5.0, "slow"), eng.timeout(1.0, "fast")]
            )
            results.append((eng.now, idx, value))

        eng.process(proc())
        eng.run(until=10.0)
        assert results == [(1.0, 1, "fast")]

    def test_any_of_empty_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.any_of([])


class TestDeadlockDetection:
    def test_blocked_process_raises_deadlock(self):
        eng = Engine()

        def stuck():
            yield eng.event()  # never triggered

        eng.process(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError, match="stuck-proc"):
            eng.run()

    def test_run_until_skips_deadlock_check(self):
        eng = Engine()

        def stuck():
            yield eng.event()

        eng.process(stuck())
        eng.run(until=1.0)  # bounded run: fine
