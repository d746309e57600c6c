"""Semantics of the engine hot-path optimizations.

The speedups (Timeout pooling, O(1) consume_failure, lazy deadlock
formatting, localized run loop) must be invisible: these tests pin the
behaviors a recycled object could silently corrupt.
"""

import pytest

from repro.sim import Engine, Timeout
from repro.util.errors import DeadlockError, SimulationError


class TestTimeoutPooling:
    def test_processed_timeouts_are_recycled(self):
        eng = Engine()
        seen = []

        def ticker():
            for _ in range(10):
                ev = eng.timeout(1.0)
                seen.append(id(ev))
                yield ev

        eng.process(ticker())
        eng.run()
        # steady state reuses instances instead of allocating 10
        assert len(set(seen)) < len(seen)
        assert eng._timeout_pool  # survivors parked for the next run

    def test_pool_is_bounded(self):
        eng = Engine()

        def burst():
            # schedule far more simultaneous timers than the pool cap
            yield eng.all_of([eng.timeout(1.0) for _ in range(600)])

        eng.process(burst())
        eng.run()
        assert len(eng._timeout_pool) <= Engine._POOL_MAX

    def test_values_survive_combinators(self):
        """AllOf reads child values after dispatch: children are pinned."""
        eng = Engine()
        out = []

        def proc():
            values = yield eng.all_of(
                [eng.timeout(1.0, "a"), eng.timeout(2.0, "b")]
            )
            # interleave more timeouts, then check nothing was clobbered
            yield eng.timeout(1.0)
            out.append(values)

        eng.process(proc())
        eng.run()
        assert out == [["a", "b"]]

    def test_recycled_timeout_carries_new_value(self):
        eng = Engine()
        got = []

        def proc():
            first = eng.timeout(1.0, "one")
            got.append((yield first))
            second = eng.timeout(1.0, "two")
            got.append((yield second))

        eng.process(proc())
        eng.run()
        assert got == ["one", "two"]

    def test_direct_construction_is_not_pooled(self):
        eng = Engine()
        held = Timeout(eng, 1.0, "kept")

        def proc():
            yield held
            yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        # a directly-constructed Timeout keeps its state after the run
        assert held.processed and held.value == "kept"
        assert held not in eng._timeout_pool

    def test_negative_delay_rejected_on_pooled_path(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)
            eng.timeout(-0.5)

        eng.process(proc())
        with pytest.raises(SimulationError, match="negative|boom"):
            eng.run()


class TestFailureBookkeeping:
    def test_the_oldest_orphan_failure_is_the_one_raised(self):
        eng = Engine()

        def bad(tag):
            yield eng.timeout(1.0)
            raise ValueError(tag)

        for i in range(3):
            eng.process(bad(f"p{i}"), name=f"p{i}")
        with pytest.raises(SimulationError, match="p0"):
            eng.run()


class TestLazyDeadlock:
    def test_blocked_detail_available_structurally(self):
        eng = Engine()

        def stuck():
            yield eng.event(name="never")

        eng.process(stuck(), name="stuck-proc")
        with pytest.raises(DeadlockError) as exc_info:
            eng.run()
        assert exc_info.value.blocked == [("stuck-proc", "never")]
        assert "stuck-proc" in str(exc_info.value)
        assert "never" in str(exc_info.value)

    def test_plain_message_still_renders(self):
        assert str(DeadlockError("plain")) == "plain"


class TestRunLoop:
    def test_until_with_empty_heap_keeps_last_event_time(self):
        eng = Engine()

        def proc():
            yield eng.timeout(3.0)

        eng.process(proc())
        assert eng.run(until=10.0) == 3.0

    def test_until_pauses_and_resumes(self):
        eng = Engine()
        ticks = []

        def proc():
            for _ in range(4):
                yield eng.timeout(1.0)
                ticks.append(eng.now)

        eng.process(proc())
        eng.run(until=2.5)
        assert ticks == [1.0, 2.0] and eng.now == 2.5
        eng.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0]


class TestCallbackChainedDelivery:
    """A delivered message costs the engine its two completion events --
    no transfer ``Process``, no ``start:``/``lock:request``/finished
    event -- and mixes safely with pooled timeouts."""

    @staticmethod
    def _world(n_nodes=2):
        from repro.mpi import World
        from repro.sim import Cluster, ClusterSpec

        cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
        return cluster, World(cluster, n_nodes)

    @staticmethod
    def _count_events(monkeypatch):
        from repro.sim import Event

        made = []
        init = Event.__init__

        def counting(self, *args, **kwargs):
            made.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting)
        return made

    @pytest.mark.parametrize("same_node", [False, True])
    def test_at_most_three_events_per_message(self, monkeypatch, same_node):
        cluster, world = self._world()
        comm = world.comm_world
        dst = 0 if same_node else 1
        made = self._count_events(monkeypatch)
        n = 50
        recvs = []
        for tag in range(n):
            recvs.append(comm.recv_op(dst, 0, tag))
            comm.send_op(0, dst, tag, payload=tag)
        cluster.engine.run()
        assert [ev.value for ev in recvs] == list(range(n))
        assert cluster.network.messages_sent == n
        # send + recv completion (the old path: 7, with a Process each)
        assert len(made) <= 3 * n
        assert set(made) <= {"Event", "Timeout"}
        assert not cluster.engine._alive

    def test_pooled_timeouts_survive_interleaved_deliveries(self):
        """Recycled timeouts keep their own values while holds and
        deliveries come and go between them at the same instants."""
        cluster, world = self._world()
        eng = cluster.engine
        comm = world.comm_world
        hold = cluster.network.estimate_time(
            cluster.node(0), cluster.node(1), 8.0)
        woke, got = [], []

        def sleeper():
            for i in range(40):
                # same duration as a message: timer and transfer completions
                # collide, recycled timeouts are reused straight away
                woke.append((yield eng.timeout(hold, ("tick", i))))

        def receiver():
            for tag in range(40):
                payload = yield comm.recv_op(1, 0, tag)
                got.append(payload)

        def sender():
            for tag in range(40):
                yield comm.send_op(0, 1, tag, payload=tag, nbytes=8.0)

        for body in (sleeper, receiver, sender):
            eng.process(body())
        eng.run()
        assert woke == [("tick", i) for i in range(40)]
        assert got == list(range(40))
        assert 0 < len(eng._timeout_pool) <= Engine._POOL_MAX
