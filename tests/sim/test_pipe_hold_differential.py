"""Differential test: :class:`PipeHold`'s inline lock path vs the oracle.

``PipeHold`` grants, queues and hands off pipe locks itself instead of
calling ``request_cb``/``release``.  The contract is that nothing
simulated can tell: random programs of multi-piece flushes (NIC plus a
round-robin server picked as each piece starts), single-piece messages,
one-pipe drains (zero pieces included), plain timers and ``cancel()``
calls -- on a coarse time grid, so that start times and hold ends tie --
run once with ``PipeHold`` and once with
:class:`~tests.sim.reference_pipes.ReferenceHold` on identical engines.
Both must log the same completions at the same instants, leave every
pipe with the same counters and lock state, and end on the same clock
and the same engine sequence number (every ``call_later`` made, in the
same order).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Engine
from repro.sim.resources import BandwidthPipe, PipeHold
from tests.sim.reference_pipes import ReferenceHold

N_NICS = 3
TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0])
HOLDS = st.sampled_from([0.0, 0.5, 0.5, 1.0])
NICS = st.integers(0, N_NICS - 1)

OPS = st.one_of(
    st.tuples(st.just("flush"), NICS, st.integers(1, 3), HOLDS),
    st.tuples(st.just("message"), NICS, NICS, HOLDS),
    st.tuples(st.just("drain"), st.integers(0, 3), HOLDS),
    st.tuples(st.just("timer"), HOLDS),
    # cancel hold n after 0-2 zero-delay hops, to land between the steps
    # of a grant
    st.tuples(st.just("cancel"), st.integers(0, 15), st.integers(0, 2)),
)
PROGRAMS = st.lists(st.tuples(TIMES, OPS), max_size=25)


class Machine:
    """Interprets one program with one hold class, logging completions."""

    def __init__(self, hold_cls):
        self.eng = Engine()
        self.hold_cls = hold_cls
        self.nics = [BandwidthPipe(self.eng, 1.0, name=f"nic{i}")
                     for i in range(N_NICS)]
        self.servers = [BandwidthPipe(self.eng, 1.0, name=f"ost{i}")
                        for i in range(2)]
        self.pipes = self.nics + self.servers
        self.rr = 0
        self.holds = []
        self.log = []

    def note(self, what):
        self.log.append((self.eng.now, what))

    def _server(self):
        server = self.servers[self.rr % len(self.servers)]
        self.rr += 1
        return server

    def _flush_pieces(self, nic, n, hold):
        for _ in range(n):
            yield nic, self._server(), hold, 1.0

    def _drain_pieces(self, n, hold):
        for _ in range(n):
            yield self._server(), None, hold, 1.0

    def issue(self, op_id, op):
        kind = op[0]
        tag = (op_id, kind)
        if kind == "flush":
            pieces = self._flush_pieces(self.nics[op[1]], op[2], op[3])
        elif kind == "message":
            lo, hi = sorted((op[1], op[2]))
            second = self.nics[hi] if hi != lo else None
            pieces = [(self.nics[lo], second, op[3], 1.0)]
        elif kind == "drain":
            pieces = self._drain_pieces(op[1], op[2])
        elif kind == "timer":
            self.eng.call_later(op[1], self.note, (tag, "rang"))
            return
        else:
            self.cancel(tag, op[1], op[2])
            return
        self.holds.append(self.hold_cls(pieces, self.note, (tag, "done")))

    def cancel(self, tag, n, hops):
        if hops:
            self.eng.call_soon(lambda _: self.cancel(tag, n, hops - 1))
        elif self.holds:
            self.holds[n % len(self.holds)].cancel()
            self.note((tag, "cancelled"))

    def state(self):
        return (self.log, self.eng.now, self.eng._seq, [
            (p.busy_time, p.bytes_moved, p.in_use, len(p._waiters))
            for p in self.pipes])


def execute(hold_cls, program):
    m = Machine(hold_cls)
    for op_id, (when, op) in enumerate(program):
        m.eng.call_later(when, lambda pair: m.issue(*pair), (op_id, op))
    m.eng.run()
    return m.state()


@settings(max_examples=400, deadline=None)
@given(PROGRAMS)
def test_pipe_hold_is_indistinguishable_from_the_two_call_lock(program):
    assert execute(PipeHold, program) == execute(ReferenceHold, program)


# cancel() in each state a hold can be in, on a hand-made instant: the
# holder has pipe 0 until t=1; the other holds want it, or pipe 1 behind it
_CANCEL_IN = {
    # queued on its first pipe
    "wait_first": [(0.0, ("message", 0, 1, 1.0)),
                   (0.0, ("message", 0, 2, 1.0)),
                   (0.5, ("cancel", 1, 0))],
    # first pipe granted, the grant's hop not yet run
    "grant_in_flight": [(0.0, ("message", 0, 1, 1.0)),
                        (0.0, ("cancel", 0, 0))],
    # holds its first pipe, queued on its second
    "wait_second": [(0.0, ("message", 1, 2, 1.0)),
                    (0.0, ("message", 0, 1, 1.0)),
                    (0.5, ("cancel", 1, 0))],
    # holds its first pipe, the second's grant hop not yet run
    "second_in_flight": [(0.0, ("flush", 0, 2, 1.0)),
                         (0.0, ("cancel", 0, 1))],
    # holding both pipes, with a waiter on each
    "holding": [(0.0, ("message", 0, 1, 1.0)),
                (0.0, ("message", 0, 2, 1.0)),
                (0.5, ("flush", 1, 1, 1.0)),
                (0.5, ("cancel", 0, 0))],
    # finished already: a no-op
    "over": [(0.0, ("drain", 1, 0.5)), (1.0, ("cancel", 0, 0))],
}


@pytest.mark.parametrize("state", sorted(_CANCEL_IN))
def test_cancel_in_each_state_matches_the_oracle(state):
    program = _CANCEL_IN[state]
    got = execute(PipeHold, program)
    assert got == execute(ReferenceHold, program)
    assert any(what[1] == "cancelled" for _, what in got[0])
    assert all(p[2] == 0 and p[3] == 0 for p in got[3])  # every lock back
