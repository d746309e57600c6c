"""Differential ordering test: ready-queue engine vs heap-only oracle.

Random programs -- timed and zero-delay events, ``call_soon``, bare lock
requests mixed with pipe holds in both forms on the same pipes,
``AllOf``/``AnyOf``, kills, late ``add_callback``, bounded runs stopping
on and between instants, work scheduled between runs -- are executed on
:class:`repro.sim.Engine` and on the reference
:class:`~tests.sim.reference_engine.HeapOnlyEngine`; the two must log the
same dispatch sequence and end on the same clock.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Engine, Interrupt
from repro.sim.resources import BandwidthPipe, PipeHold, hold_pipes
from tests.sim.reference_engine import HeapOnlyEngine
from tests.sim.reference_pipes import release, request_cb

N_EVENTS = 4
#: a coarse grid, so that programs are full of same-instant collisions
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5])
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])
EVENTS = st.integers(0, N_EVENTS - 1)

OPS = st.one_of(
    st.tuples(st.just("succeed"), EVENTS, DELAYS),
    st.tuples(st.just("fail"), EVENTS),
    st.tuples(st.just("soon")),
    st.tuples(st.just("later"), DELAYS),
    st.tuples(st.just("request_cb"), DELAYS),
    st.tuples(st.just("hold_cb"), DELAYS),
    st.tuples(st.just("hold_proc"), st.booleans(), DELAYS),
    st.tuples(st.just("wait"), EVENTS),
    st.tuples(st.just("all_of"), EVENTS, EVENTS, DELAYS),
    st.tuples(st.just("any_of"), EVENTS, EVENTS, DELAYS),
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(st.just("late"), EVENTS),
)
PROGRAMS = st.lists(st.tuples(TIMES, OPS), max_size=30)
#: bounded runs landing on an instant (0.5, 1.0) and between two (0.75)
UNTILS = st.lists(st.sampled_from([0.0, 0.5, 0.75, 1.0, 2.5]), max_size=3)


class Machine:
    """Interprets one program on one engine, logging every dispatch."""

    def __init__(self, engine):
        self.eng = engine
        self.log = []
        self.events = [engine.event(f"e{i}") for i in range(N_EVENTS)]
        self.a = BandwidthPipe(engine, bandwidth=1.0, name="a")
        self.b = BandwidthPipe(engine, bandwidth=1.0, name="b")
        self.procs = []

    def note(self, what):
        self.log.append((self.eng.now, what))

    def spawn(self, tag, body):
        def guarded():
            try:
                yield from body()
            except (Interrupt, RuntimeError) as exc:
                self.note((tag, "raised", type(exc).__name__))
        self.procs.append(self.eng.process(guarded(), name=str(tag)))

    def issue(self, op_id, op):
        eng, kind = self.eng, op[0]
        tag = (op_id, kind)
        self.note((tag, "issued"))
        if kind == "succeed":
            if not self.events[op[1]].triggered:
                self.events[op[1]].succeed(op_id, delay=op[2])
        elif kind == "fail":
            if not self.events[op[1]].triggered:
                self.events[op[1]].fail(RuntimeError(str(op_id)))
        elif kind == "soon":
            eng.call_soon(self.note, (tag, "ran"))
        elif kind == "later":
            eng.call_later(op[1], self.note, (tag, "ran"))
        elif kind == "request_cb":
            def granted(_):
                self.note((tag, "granted"))
                eng.call_later(op[1], lambda _: release(self.a))
            request_cb(self.a, granted)
        elif kind == "hold_cb":
            PipeHold([(self.a, self.b, op[1], 1.0), (self.b, None, op[1], 1.0)],
                     self.note, (tag, "held"))
        elif kind == "hold_proc":
            def body():
                yield from hold_pipes(
                    eng, [(self.a, self.b if op[1] else None, op[2], 1.0)])
                self.note((tag, "held"))
            self.spawn(tag, body)
        elif kind == "wait":
            def body():
                self.note((tag, "got", (yield self.events[op[1]])))
            self.spawn(tag, body)
        elif kind in ("all_of", "any_of"):
            def body():
                group = getattr(eng, kind)([
                    self.events[op[1]], self.events[op[2]],
                    eng.timeout(op[3], "t")])
                self.note((tag, "got", (yield group)))
            self.spawn(tag, body)
        elif kind == "sleep":
            def body():
                self.note((tag, "woke", (yield eng.timeout(op[1], op_id))))
            self.spawn(tag, body)
        elif kind == "kill":
            if self.procs:
                self.procs[op[1] % len(self.procs)].kill()
        elif kind == "late":
            self.events[op[1]].add_callback(
                lambda ev: self.note((tag, "saw", ev.ok)))


def execute(engine, program, untils):
    m = Machine(engine)
    split = len(program) // 2 if untils else len(program)

    def schedule(lo, hi):
        for op_id in range(lo, hi):
            when, op = program[op_id]
            engine.call_later(when, lambda pair: m.issue(*pair), (op_id, op))

    schedule(0, split)
    for until in sorted(untils):
        engine.run(until=until)
        m.note("paused")
    # the second half is issued between runs, at whatever the clock says
    schedule(split, len(program))
    engine.run(check_deadlock=False)
    return m.log, engine.now, m.a.in_use, m.b.in_use


@settings(max_examples=300, deadline=None)
@given(PROGRAMS, UNTILS)
def test_ready_queue_is_indistinguishable_from_a_heap(program, untils):
    assert execute(Engine(), program, untils) == execute(
        HeapOnlyEngine(), program, untils)


def test_the_oracle_orders_zero_delay_work_by_schedule_order():
    """The contract itself, spelled out on a hand-made instant."""
    for engine in (Engine(), HeapOnlyEngine()):
        log = []
        engine.call_later(1.0, lambda _: (
            log.append("a"), engine.call_soon(log.append, "a-soon")))
        engine.call_later(1.0, lambda _: (
            log.append("b"), engine.call_soon(log.append, "b-soon")))
        engine.call_soon(log.append, "first")
        engine.run()
        # zero-delay work runs in schedule order, after the same-instant
        # heap entries scheduled earlier
        assert log == ["first", "a", "b", "a-soon", "b-soon"]
