"""Memoized view discovery and census robustness.

The KR context caches the (discover, classify) census per checkpoint
region code object, invalidated by the process-wide registry generation
counter -- steady-state iterations skip the closure walk entirely.  The
census must also classify correctly for views whose parent array has
gone out of scope (buffer identity is anchored on the numpy base chain).
"""

import gc

import numpy as np

from repro.kokkos import View
from repro.kokkos.registry import registry_generation
from tests.core.test_context import run_kr


class TestDiscoveryMemoization:
    def test_steady_state_hits_cache(self):
        def body(kr, h, rt):
            v = rt.view("state", shape=(8,))

            def region():
                v.fill(1.0)

            for i in range(5):
                yield from kr.checkpoint("loop", i, region)
            return kr.discoveries_memoized

        results, _ = run_kr(1, body)
        # first call discovers; the next four are served from the cache
        assert results[0] == 4

    def test_per_iteration_closures_share_the_cache(self):
        # heatdis-style: a fresh closure per iteration compiles once, so
        # every iteration keys on the same code object
        def body(kr, h, rt):
            v = rt.view("state", shape=(8,))
            for i in range(4):
                yield from kr.checkpoint("loop", i, lambda: v.fill(i))
            return kr.discoveries_memoized

        results, _ = run_kr(1, body)
        assert results[0] == 3

    def test_registry_change_invalidates(self):
        def body(kr, h, rt):
            v = rt.view("state", shape=(8,))

            def region():
                v.fill(1.0)

            yield from kr.checkpoint("loop", 0, region)
            yield from kr.checkpoint("loop", 1, region)
            rt.view("late", shape=(4,))  # registry generation bumps
            yield from kr.checkpoint("loop", 2, region)
            return (kr.discoveries_memoized, len(kr.last_census.checkpointed))

        results, _ = run_kr(1, body)
        memoized, checkpointed = results[0]
        assert memoized == 1  # only iteration 1 hit the cache
        assert checkpointed == 1  # "late" is not captured by region

    def test_new_view_in_region_is_discovered(self):
        # the invalidation above is what makes this correct: a view
        # registered after the first census must still be checkpointed
        def body(kr, h, rt):
            views = [rt.view("a", shape=(4,))]

            def region():
                for v in views:
                    v.fill(1.0)

            yield from kr.checkpoint("loop", 0, region)
            first = len(kr.last_census.checkpointed)
            views.append(rt.view("b", shape=(4,)))
            yield from kr.checkpoint("loop", 1, region)
            return (first, len(kr.last_census.checkpointed))

        results, _ = run_kr(1, body)
        assert results[0] == (1, 2)

    def test_subscribe_invalidates(self):
        class Holder:
            pass

        def body(kr, h, rt):
            v = rt.view("state", shape=(8,))

            def region():
                v.fill(1.0)

            yield from kr.checkpoint("loop", 0, region)
            holder = Holder()
            holder.extra = rt.view("extra", shape=(4,))
            kr.subscribe(holder)
            yield from kr.checkpoint("loop", 1, region)
            return len(kr.last_census.checkpointed)

        results, _ = run_kr(1, body)
        assert results[0] == 2

    def test_generation_counter_bumps_on_registry_ops(self):
        from repro.kokkos.registry import ViewRegistry

        reg = ViewRegistry()
        g0 = registry_generation()
        View("x", shape=(2,), registry=reg)
        assert registry_generation() > g0
        g1 = registry_generation()
        reg.clear()
        assert registry_generation() > g1


class TestCensusBufferLiveness:
    def test_duplicate_detection_survives_parent_scope_exit(self):
        # regression: two views over one buffer whose creating scope (and
        # the caller's reference to the parent array) is gone must still
        # classify as one checkpointed + one skipped, not two checkpointed
        def body(kr, h, rt):
            def make_pair():
                parent = np.arange(64.0)
                a = rt.view("a", data=parent[:48])
                b = rt.view("b", data=parent[16:])
                return a, b

            a, b = make_pair()
            gc.collect()  # parent name is out of scope; base chain holds

            def region():
                a.fill(1.0)
                b.fill(2.0)

            yield from kr.checkpoint("loop", 0, region)
            c = kr.last_census
            return (len(c.checkpointed), len(c.skipped), len(c.aliases))

        results, _ = run_kr(1, body)
        assert results[0] == (1, 1, 0)

    def test_distinct_buffers_not_conflated_after_gc(self):
        # the flip side: buffer ids of *dead* arrays must never be reused
        # in a way that makes two live independent views look shared
        def body(kr, h, rt):
            views = []
            for i in range(8):
                scratch = np.full(32, float(i))
                views.append(rt.view(f"v{i}", data=scratch[:16]))
                del scratch
                gc.collect()

            def region():
                for v in views:
                    v.fill(1.0)

            yield from kr.checkpoint("loop", 0, region)
            c = kr.last_census
            return (len(c.checkpointed), len(c.skipped))

        results, _ = run_kr(1, body)
        assert results[0] == (8, 0)
