"""Unit tests for Resource, Store and BandwidthPipe."""

import pytest

from repro.sim import Engine
from repro.sim.engine import ProcessKilled
from repro.sim.resources import (
    BandwidthPipe, PipeHold, Resource, Store, hold_pipes,
)
from repro.util.errors import SimulationError


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)

    def test_serializes_beyond_capacity(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        spans = {}

        def worker(tag):
            yield res.request()
            start = eng.now
            yield eng.timeout(1.0)
            res.release()
            spans[tag] = (start, eng.now)

        for tag in range(4):
            eng.process(worker(tag))
        eng.run()
        # two run at t=0..1, the next two at t=1..2
        starts = sorted(s for s, _ in spans.values())
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def worker(tag):
            yield res.request()
            order.append(tag)
            yield eng.timeout(1.0)
            res.release()

        for tag in range(5):
            eng.process(worker(tag))
        eng.run()
        assert order == list(range(5))

    def test_release_without_acquire_rejected(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_counters(self):
        eng = Engine()
        res = Resource(eng, capacity=1)

        def holder():
            yield res.request()
            assert res.in_use == 1
            yield eng.timeout(1.0)
            res.release()

        def waiter():
            ev = res.request()
            assert res.queue_length == 1
            yield ev
            res.release()

        eng.process(holder())
        eng.process(waiter())
        eng.run()
        assert res.in_use == 0
        assert res.queue_length == 0


    def test_request_cb_shares_the_fifo_with_event_waiters(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def grab(tag):
            def granted(_):
                order.append((tag, eng.now))
                eng.call_later(1.0, lambda _: res.release())
            return granted

        def worker(tag):
            yield res.request()
            order.append((tag, eng.now))
            yield eng.timeout(1.0)
            res.release()

        res.request_cb(grab("cb0"))
        eng.process(worker("ev1"))
        eng.call_soon(lambda _: res.request_cb(grab("cb2")))
        eng.run()
        assert order == [("cb0", 0.0), ("ev1", 1.0), ("cb2", 2.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_request_cb_grant_is_one_hop_away(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []
        res.request_cb(lambda _: order.append("granted"))
        order.append("requested")
        eng.call_soon(lambda _: order.append("later"))
        eng.run()
        assert order == ["requested", "granted", "later"]

    def test_killed_waiter_does_not_leak_the_slot(self):
        """A process killed while queued must not be handed the slot:
        nobody would ever release it (the relaunch deadlock on
        ``pfs.ost0:lock:request``)."""
        eng = Engine()
        res = Resource(eng, capacity=1)
        got = []

        def worker(tag, hold):
            try:
                yield res.request()
            except ProcessKilled:
                return
            got.append((tag, eng.now))
            yield eng.timeout(hold)
            res.release()

        eng.process(worker("holder", 2.0))
        victim = eng.process(worker("victim", 1.0))
        eng.process(worker("next", 1.0))
        eng.call_later(1.0, lambda _: victim.kill())
        eng.run()
        # the slot skips the dead waiter at the instant the holder lets go
        assert got == [("holder", 0.0), ("next", 2.0)]
        assert res.in_use == 0 and res.queue_length == 0

    def test_kill_between_grant_and_delivery_gives_the_slot_back(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        got = []

        def worker(tag):
            try:
                yield res.request()
            except ProcessKilled:
                return
            got.append((tag, eng.now))
            yield eng.timeout(1.0)
            res.release()

        def holder():
            yield res.request()
            yield eng.timeout(1.0)
            res.release()  # grants to the victim (dispatch pending) ...
            victim.kill()  # ... who dies before it hears of it

        eng.process(holder())
        victim = eng.process(worker("victim"))
        eng.process(worker("next"))
        eng.run()
        assert got == [("next", 1.0)]
        assert res.in_use == 0

    def test_unawaited_request_keeps_its_place(self):
        """Only a request somebody stopped waiting for is withdrawn; one
        that is merely held for later still gets (and holds) the slot."""
        eng = Engine()
        res = Resource(eng, capacity=1)
        first = res.request()
        later = res.request()

        def proc():
            yield first
            res.release()
            yield eng.timeout(1.0)
            yield later
            return eng.now

        p = eng.process(proc())
        eng.run()
        assert p.value == 1.0 and res.in_use == 1


class TestStore:
    def test_put_then_get(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield from store.get()
            got.append(item)

        store.put("x")
        eng.process(consumer())
        eng.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer():
            item = yield from store.get()
            got.append((eng.now, item))

        def producer():
            yield eng.timeout(3.0)
            store.put("late")

        eng.process(consumer())
        eng.process(producer())
        eng.run()
        assert got == [(3.0, "late")]

    def test_fifo_ordering_items_and_getters(self):
        eng = Engine()
        store = Store(eng)
        got = []

        def consumer(tag):
            item = yield from store.get()
            got.append((tag, item))

        eng.process(consumer("first"))
        eng.process(consumer("second"))

        def producer():
            yield eng.timeout(1.0)
            store.put(1)
            store.put(2)

        eng.process(producer())
        eng.run()
        assert got == [("first", 1), ("second", 2)]

    def test_drain(self):
        eng = Engine()
        store = Store(eng)
        store.put(1)
        store.put(2)
        assert store.drain() == [1, 2]
        assert len(store) == 0

    def test_fail_waiters(self):
        eng = Engine()
        store = Store(eng)
        caught = []

        def consumer():
            try:
                yield from store.get()
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(consumer())

        def killer():
            yield eng.timeout(1.0)
            store.fail_waiters(RuntimeError("shutdown"))

        eng.process(killer())
        eng.run()
        assert caught == ["shutdown"]


class TestBandwidthPipe:
    def test_transfer_time_formula(self):
        pipe = BandwidthPipe(Engine(), bandwidth=100.0, latency=0.5)
        assert pipe.transfer_time(200.0) == pytest.approx(0.5 + 2.0)

    def test_transfers_serialize(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=100.0, latency=0.0)
        done = []

        def mover(tag):
            yield from pipe.transfer(100.0)  # 1 second each
            done.append((tag, eng.now))

        eng.process(mover("a"))
        eng.process(mover("b"))
        eng.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_byte_accounting(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from pipe.transfer(5.0)

        eng.process(mover())
        eng.run()
        assert pipe.bytes_moved == 5.0
        assert pipe.busy_time == pytest.approx(0.5)

    def test_utilization(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=10.0)

        def mover():
            yield from pipe.transfer(10.0)  # busy 1s
            yield eng.timeout(1.0)  # idle 1s

        eng.process(mover())
        eng.run()
        assert pipe.utilization() == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=0.0)
        with pytest.raises(SimulationError):
            BandwidthPipe(Engine(), bandwidth=1.0, latency=-1.0)

    def test_negative_transfer_rejected(self):
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1.0)

        def mover():
            yield from pipe.transfer(-1.0)

        eng.process(mover())
        with pytest.raises(SimulationError):
            eng.run()


class TestPipeHold:
    def _pipes(self, eng):
        return (BandwidthPipe(eng, bandwidth=10.0, name="a"),
                BandwidthPipe(eng, bandwidth=10.0, name="b"))

    def test_holds_both_pipes_and_charges_both(self):
        eng = Engine()
        a, b = self._pipes(eng)
        done = []
        PipeHold(a, b, 2.0, 20.0, done.append, "x")
        # the first lock is taken at once, the second one hop later
        assert (a._lock.in_use, b._lock.in_use) == (1, 0)
        eng.call_soon(lambda _: done.append((a._lock.in_use, b._lock.in_use)))
        eng.run()
        assert done == [(1, 1), "x"] and eng.now == 2.0
        assert (a.busy_time, a.bytes_moved) == (2.0, 20.0)
        assert (b.busy_time, b.bytes_moved) == (2.0, 20.0)
        assert a._lock.in_use == b._lock.in_use == 0

    def test_same_order_as_the_generator_form(self):
        """Callback holds and process holds queue on the same locks in
        request order."""
        eng = Engine()
        a, b = self._pipes(eng)
        order = []

        def proc(tag):
            yield from hold_pipes(a, b, 1.0, 1.0)
            order.append((tag, eng.now))

        eng.process(proc("p0"))
        eng.call_soon(lambda _: PipeHold(a, b, 1.0, 1.0, order.append,
                                         ("c1", None)))
        eng.process(proc("p2"))
        eng.run()
        assert [t for t, _ in order] == ["p0", "c1", "p2"]
        assert eng.now == 3.0

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
            yield from hold_pipes(pipe, None, hold, 0.0)

        def victim():
            yield from hold_pipes(a, b, 5.0, 50.0)

        def killer():
            yield eng.timeout(kill_at)
            seen.append(v._target.name)
            v.kill()

        def late():
            yield eng.timeout(3.0)
            yield from hold_pipes(a, b, 1.0, 1.0)
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
        assert a._lock.in_use == b._lock.in_use == 0
        assert a._lock.queue_length == b._lock.queue_length == 0
