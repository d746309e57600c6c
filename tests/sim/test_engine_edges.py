"""Engine edge cases: resumed runs, combinator order."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Engine


class TestResumedRuns:
    def test_run_until_then_continue(self):
        eng = Engine()
        marks = []

        def proc():
            yield eng.timeout(1.0)
            marks.append(eng.now)
            yield eng.timeout(1.0)
            marks.append(eng.now)

        eng.process(proc())
        eng.run(until=1.5)
        assert marks == [1.0]
        eng.run()
        assert marks == [1.0, 2.0]

    def test_run_until_exact_boundary(self):
        eng = Engine()

        def proc():
            yield eng.timeout(2.0)

        eng.process(proc())
        eng.run(until=2.0)
        assert eng.now == 2.0


class TestCombinatorEdges:
    def test_anyof_failure_first_propagates(self):
        eng = Engine()
        caught = []

        def proc():
            bad = eng.event()
            bad.fail(RuntimeError("fast failure"), delay=0.5)
            slow = eng.timeout(5.0)
            try:
                yield eng.any_of([slow, bad])
            except RuntimeError as exc:
                caught.append(str(exc))

        eng.process(proc())
        eng.run(until=10.0)
        assert caught == ["fast failure"]

    def test_allof_preserves_input_order(self):
        eng = Engine()
        out = []

        def proc():
            values = yield eng.all_of(
                [eng.timeout(3.0, "slow"), eng.timeout(1.0, "fast")]
            )
            out.append(values)

        eng.process(proc())
        eng.run()
        assert out == [["slow", "fast"]]  # input order, not completion order

    def test_nested_combinators(self):
        eng = Engine()
        out = []

        def proc():
            inner = eng.all_of([eng.timeout(1.0, "a"), eng.timeout(2.0, "b")])
            idx, value = yield eng.any_of([eng.timeout(5.0), inner])
            out.append((idx, value, eng.now))

        eng.process(proc())
        eng.run(until=10.0)
        assert out == [(1, ["a", "b"], 2.0)]


class TestHypothesisWorkloads:
    @settings(max_examples=25, deadline=None)
    @given(
        tree=st.recursive(
            st.floats(min_value=0.01, max_value=5.0),
            lambda leaf: st.lists(leaf, min_size=1, max_size=3),
            max_leaves=12,
        )
    )
    def test_random_process_trees_complete(self, tree):
        """Spawning arbitrary trees of child processes always drains, the
        clock never regresses, and the final time is the critical path."""
        eng = Engine()
        observed = []

        def runner(node):
            if isinstance(node, float):
                yield eng.timeout(node)
                observed.append(eng.now)
                return node
            children = [eng.process(runner(child)) for child in node]
            durations = yield eng.all_of(children)
            observed.append(eng.now)
            return max(durations)

        root = eng.process(runner(tree))
        eng.run()
        assert observed == sorted(observed)

        def critical(node):
            if isinstance(node, float):
                return node
            return max(critical(c) for c in node)

        assert root.value == pytest.approx(critical(tree))
        assert eng.now == pytest.approx(critical(tree))
