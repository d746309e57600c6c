"""The simulator's primitives leave nothing for the cyclic collector.

Each scenario runs with the collector off; whatever it leaves behind must
be freed by reference counting alone, so ``gc.collect()`` then finds
nothing.  A job is a web of these primitives (tests/harness/
test_job_garbage.py holds whole jobs to the same rule).
"""

import gc
import sys
from collections import Counter

import pytest

from repro.core import discover_views
from repro.kokkos import KokkosRuntime
from repro.sim import Engine, ProcessKilled
from repro.sim.engine import Timeout
from repro.sim.resources import BandwidthPipe, hold_pipes
from repro.util.errors import SimulationError


def unreachable(objs):
    """The objects of ``objs`` that nothing outside it leads to: the
    collector's own reachability test.  Asked here rather than of
    ``gc.collect()``, which counts only what is still unreachable after
    finalizers ran -- closing a suspended generator may free a whole
    cycle through it, uncounted."""
    pos = {id(obj): i for i, obj in enumerate(objs)}
    edges = [[pos[id(ref)] for ref in gc.get_referents(obj) if id(ref) in pos]
             for obj in objs]
    inner = [0] * len(objs)
    for refs in edges:
        for j in refs:
            inner[j] += 1
    # getrefcount sees the list and its own argument besides
    stack = [i for i in range(len(objs))
             if sys.getrefcount(objs[i]) - 2 > inner[i]]
    reached = set(stack)
    while stack:
        for j in edges[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return [obj for i, obj in enumerate(objs) if i not in reached]


def cyclic_garbage(scenario):
    """Run ``scenario()`` with the cyclic collector off; returns
    ``(result, counts)``: what it returned, and the type counts of what
    it left that only the collector could free (empty when nothing)."""
    gc.collect()
    gc.disable()
    try:
        result = scenario()
        # everything the scenario made and left is in the young generation
        counts = Counter(type(obj).__qualname__
                         for obj in unreachable(gc.get_objects(generation=0)))
        counts["(collected)"] = gc.collect()
    finally:
        gc.enable()
    return result, +counts


def assert_acyclic(scenario):
    result, counts = cyclic_garbage(scenario)
    assert counts == Counter(), f"left for the collector: {dict(counts)}"
    return result


def observed(proc):
    """Watch ``proc`` so that its failure counts as handled."""
    proc.add_callback(lambda _ev: None)
    return proc


def test_a_completed_hold_pipes():
    def scenario():
        eng = Engine()
        pipe = BandwidthPipe(eng, bandwidth=1e9, latency=1e-6, name="nic")

        def mover():
            yield from hold_pipes(eng, [(pipe, None, 1.0, 8.0)])

        eng.process(mover())
        eng.run()
        return eng.now, pipe.in_use

    assert assert_acyclic(scenario) == (1.0, 0)


def test_a_cancelled_hold_pipes():
    """One caller killed while holding both pipes, one while it waits for
    the first: each gives back what it had."""
    def scenario():
        eng = Engine()
        first = BandwidthPipe(eng, bandwidth=1e9, name="a")
        second = BandwidthPipe(eng, bandwidth=1e9, name="b")

        def mover():
            yield from hold_pipes(eng, [(first, second, 1.0, 8.0)])

        holding = observed(eng.process(mover()))
        waiting = observed(eng.process(mover()))
        eng.call_later(0.5, lambda _: waiting.kill())
        eng.call_later(0.6, lambda _: holding.kill())
        eng.run()
        return (eng.now, first.in_use, second.in_use, len(first._waiters))

    # the killed hold's own timer still fires at 1.0, and does nothing
    assert assert_acyclic(scenario) == (1.0, 0, 0, 0)


def test_a_finished_process():
    def scenario():
        eng = Engine()

        def worker():
            yield Timeout(eng, 1.0)
            return "done"

        def joiner(proc):
            return (yield proc)

        joined = eng.process(joiner(eng.process(worker())))
        eng.run()
        return joined.value

    assert assert_acyclic(scenario) == "done"


def test_a_killed_process():
    def scenario():
        eng = Engine()

        def blocked():
            yield eng.event(name="never")

        proc = observed(eng.process(blocked()))
        eng.call_later(1.0, lambda _: proc.kill())
        eng.run()
        # a failure thrown in keeps no traceback: its frames are where the
        # process waited
        return type(proc.exception), proc.exception.__traceback__

    assert assert_acyclic(scenario) == (ProcessKilled, None)


def test_an_exception_thrown_in_and_caught_there():
    def scenario():
        eng = Engine()
        failing = eng.event(name="failing")
        caught = []

        def catcher():
            try:
                yield failing
            except ValueError as exc:
                caught.append((eng.now, str(exc)))
            yield Timeout(eng, 1.0)

        eng.process(catcher())
        failing.fail(ValueError("lost"), delay=2.0)
        eng.run()
        return caught, failing.exception.__traceback__

    assert assert_acyclic(scenario) == ([(2.0, "lost")], None)


def test_combinators_leave_the_children_that_did_not_fire():
    """An AnyOf whose loser never fires, and an AllOf failed by one child
    while another is still pending."""
    def scenario():
        eng = Engine()
        never = eng.event(name="never")
        pending = eng.event(name="pending")
        failing = eng.event(name="failing")
        got = []

        def first():
            got.append((yield eng.any_of([Timeout(eng, 1.0, "t"), never])))

        def every():
            try:
                yield eng.all_of([pending, failing])
            except ValueError:
                got.append("all_of failed")

        eng.process(first())
        eng.process(every())
        failing.fail(ValueError("x"), delay=2.0)
        eng.run()
        return got, never._callbacks, pending._callbacks

    assert assert_acyclic(scenario) == ([(0, "t"), "all_of failed"], [], [])


def test_discover_views():
    def scenario():
        rt = KokkosRuntime()
        a = rt.view("a", shape=(2,))
        b = rt.view("b", shape=(2,))
        alias = b.subview(slice(0, 1))

        def region():
            a[0] = b[0] + alias[0]

        return sorted(v.label for v in discover_views(region))

    assert assert_acyclic(scenario) == ["a", "b", "b[sub]"]


def test_close_drops_the_timeout_pool():
    def scenario():
        eng = Engine()

        def sleeper():
            for _ in range(3):
                yield eng.timeout(1.0)

        eng.process(sleeper())
        eng.run()
        eng.close()
        return eng.now, len(eng._timeout_pool)

    assert assert_acyclic(scenario) == (3.0, 0)


def test_an_uncaught_failure_keeps_its_traceback():
    eng = Engine()

    def broken():
        yield Timeout(eng, 1.0)
        raise ValueError("a bug")

    eng.process(broken())
    with pytest.raises(SimulationError) as err:
        eng.run()
    tb = err.value.__cause__.__traceback__
    assert tb is not None
    names = []
    while tb is not None:
        names.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert names[-1] == "broken"
