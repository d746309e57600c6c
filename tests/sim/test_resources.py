"""Unit tests for BandwidthPipe and PipeHold."""

import pytest

from repro.sim import Engine
from repro.sim.engine import ProcessKilled
from repro.sim.resources import BandwidthPipe, PipeHold, hold_pipes
from repro.util.errors import SimulationError
from tests.sim.reference_pipes import request_cb


class TestResource:
    """The pipe's FIFO lock, which every hold queues on."""

    def test_fifo_grant_order(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        order = []

        def worker(tag):
            yield from hold_pipes(eng, [(pipe, None, 1.0, 0.0)])
            order.append(tag)

        for tag in range(5):
            eng.process(worker(tag))
        eng.run()
        assert order == list(range(5))

    def test_release_without_acquire_rejected(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        with pytest.raises(SimulationError):
            pipe.release()

    def test_counters(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        seen = []
        PipeHold([(pipe, None, 1.0, 0.0)], seen.append, "holder")
        assert pipe.in_use == 1
        PipeHold([(pipe, None, 1.0, 0.0)], seen.append, "waiter")
        assert pipe.queue_length == 1
        eng.run()
        assert seen == ["holder", "waiter"]
        assert pipe.in_use == 0
        assert pipe.queue_length == 0

    def test_a_grant_is_one_hop_away(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        order = []
        PipeHold([(pipe, None, 0.0, 0.0)], order.append, "held")
        order.append("requested")
        eng.call_soon(lambda _: order.append("later"))
        eng.run()
        # the grant hop runs before "later", the zero-second hold after it
        assert order == ["requested", "later", "held"]

    def test_request_cb_grant_is_one_hop_away(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        order = []
        request_cb(pipe, lambda _: order.append("granted"))
        order.append("requested")
        eng.call_soon(lambda _: order.append("later"))
        eng.run()
        assert order == ["requested", "granted", "later"]

    def test_killed_waiter_does_not_leak_the_slot(self):
        """A process killed while queued must not be handed the pipe:
        nobody would ever release it (the relaunch deadlock on
        ``pfs.ost0:lock:request``)."""
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        got = []

        def worker(tag, hold):
            try:
                yield from hold_pipes(eng, [(pipe, None, hold, 0.0)])
            except ProcessKilled:
                return
            got.append((tag, eng.now))

        eng.process(worker("holder", 2.0))
        victim = eng.process(worker("victim", 1.0))
        eng.process(worker("next", 1.0))
        eng.call_later(1.0, lambda _: victim.kill())
        eng.run()
        # the pipe skips the dead waiter at the instant the holder lets go
        assert got == [("holder", 2.0), ("next", 3.0)]
        assert pipe.in_use == 0 and pipe.queue_length == 0

    def test_kill_between_grant_and_delivery_gives_the_slot_back(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)
        got = []

        def worker(tag):
            try:
                yield from hold_pipes(eng, [(pipe, None, 1.0, 0.0)])
            except ProcessKilled:
                return
            got.append((tag, eng.now))

        def kill_then_release(_):
            victim.kill()  # the throw lands one hop later, so ...
            pipe.release()  # ... after this grant to the victim went out

        # a bare holder stands in for one whose hold ends at t=1
        request_cb(pipe, lambda _: eng.call_later(1.0, kill_then_release))
        victim = eng.process(worker("victim"))
        eng.process(worker("next"))
        eng.run()
        assert got == [("next", 2.0)]
        assert pipe.in_use == 0


class TestBandwidthPipe:
    def test_transfer_time_formula(self):
        pipe = BandwidthPipe(Engine(), bandwidth=100.0, latency=0.5)
        assert pipe.transfer_time(200.0) == pytest.approx(0.5 + 2.0)

    def test_transfers_serialize(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=100.0, latency=0.0)
        done = []

        def mover(tag):
            # 1 second each
            yield from hold_pipes(eng, [(pipe, None, 1.0, 100.0)])
            done.append((tag, eng.now))

        eng.process(mover("a"))
        eng.process(mover("b"))
        eng.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_byte_accounting(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from hold_pipes(eng, [(pipe, None, pipe.transfer_time(5.0),
                                         5.0)])

        eng.process(mover())
        eng.run()
        assert pipe.bytes_moved == 5.0
        assert pipe.busy_time == pytest.approx(0.5)

    def test_utilization(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from hold_pipes(eng, [(pipe, None, 1.0, 10.0)])  # busy 1s
            yield eng.timeout(1.0)  # idle 1s

        eng.process(mover())
        eng.run()
        assert pipe.utilization() == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=0.0)
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=1.0, latency=-1.0)


class TestPipeHold:
    def _pipes(self, eng):
        return (BandwidthPipe(eng, bandwidth=10.0, name="a"),
                BandwidthPipe(eng, bandwidth=10.0, name="b"))

    def test_holds_both_pipes_and_charges_both(self):
        eng = Engine()
        a, b = self._pipes(eng)
        done = []
        PipeHold([(a, b, 2.0, 20.0)], done.append, "x")
        # the first lock is taken at once, the second one hop later
        assert (a.in_use, b.in_use) == (1, 0)
        eng.call_soon(lambda _: done.append((a.in_use, b.in_use)))
        eng.run()
        assert done == [(1, 1), "x"] and eng.now == 2.0
        assert (a.busy_time, a.bytes_moved) == (2.0, 20.0)
        assert (b.busy_time, b.bytes_moved) == (2.0, 20.0)
        assert a.in_use == b.in_use == 0

    def test_same_order_as_the_generator_form(self):
        """Callback holds and process holds queue on the same locks in
        request order."""
        eng = Engine()
        a, b = self._pipes(eng)
        order = []

        def proc(tag):
            yield from hold_pipes(eng, [(a, b, 1.0, 1.0)])
            order.append((tag, eng.now))

        eng.process(proc("p0"))
        eng.call_soon(lambda _: PipeHold([(a, b, 1.0, 1.0)], order.append,
                                         ("c1", None)))
        eng.process(proc("p2"))
        eng.run()
        assert [t for t, _ in order] == ["p0", "c1", "p2"]
        assert eng.now == 3.0

    def test_pieces_interleave_with_holds_queued_meanwhile(self):
        """The next piece is asked for only once the last one let go, so
        a hold that queued meanwhile goes in between; pieces are read as
        they start."""
        eng = Engine()
        a, b = self._pipes(eng)
        order, started = [], []

        def pieces():
            for _ in range(2):
                started.append(eng.now)
                yield a, None, 1.0, 10.0

        PipeHold(pieces(), order.append, "bulk")
        eng.call_later(0.5, lambda _: PipeHold([(a, b, 1.0, 1.0)],
                                               order.append, "small"))
        eng.run()
        assert started == [0.0, 1.0]
        assert order == ["small", "bulk"] and eng.now == 3.0
        assert a.bytes_moved == 21.0 and a.in_use == 0

    def test_no_pieces_is_done_at_once(self):
        done = []
        PipeHold(iter(()), done.append, "x")
        assert done == ["x"]

    def test_a_killed_process_stops_between_pieces(self):
        eng = Engine()
        a, b = self._pipes(eng)

        def mover():
            yield from hold_pipes(eng, [(a, None, 1.0, 10.0)] * 3)

        v = eng.process(mover())
        eng.call_later(1.5, lambda _: v.kill())
        with pytest.raises(SimulationError, match="ProcessKilled"):
            eng.run()
        # the second piece's own timer still fires at 2.0, and moves none
        assert eng.now == 2.0 and a.bytes_moved == 20.0
        assert a.in_use == 0 and a.queue_length == 0

    @pytest.mark.parametrize("kill_at, blocked_on", [
        (0.5, "a:lock:request"),   # queued for the first pipe
        (1.5, "b:lock:request"),   # holds the first, queued for the second
        (2.5, "timeout"),          # holds both
    ])
    def test_killed_holder_gives_everything_back(self, kill_at, blocked_on):
        eng = Engine()
        a, b = self._pipes(eng)
        seen = []

        def blocker(pipe, hold):
            yield from hold_pipes(eng, [(pipe, None, hold, 0.0)])

        def victim():
            yield from hold_pipes(eng, [(a, b, 5.0, 50.0)])

        def killer():
            yield eng.timeout(kill_at)
            seen.append(v._target.name)
            v.kill()

        def late():
            yield eng.timeout(3.0)
            yield from hold_pipes(eng, [(a, b, 1.0, 1.0)])
            return eng.now

        eng.process(blocker(a, 1.0))   # a busy until t=1
        eng.process(blocker(b, 2.0))   # b busy until t=2
        v = eng.process(victim())
        eng.process(killer())
        after = eng.process(late())
        with pytest.raises(SimulationError, match="ProcessKilled"):
            eng.run()
        eng.consume_failure(v)
        eng.run()
        assert seen == [blocked_on]
        assert after.value == 4.0  # both pipes were free again at t=3
        assert a.in_use == b.in_use == 0
        assert a.queue_length == b.queue_length == 0
