"""Fenix IMR (buddy checkpointing) tests."""

import numpy as np
import pytest

from repro.core.backends import FenixIMRBackend
from repro.fenix import FenixSystem, IMRStore, Role
from repro.fenix.errors import FenixError
from repro.fenix.imr import buddy_rank
from repro.kokkos import KokkosRuntime
from repro.mpi import MIN, SUM, World
from repro.sim import IterationFailure, TimedFailure
from tests.fenix.conftest import fenix_cluster


class TestBuddyMapping:
    def test_xor_pairs(self):
        assert buddy_rank(0, 4) == 1
        assert buddy_rank(1, 4) == 0
        assert buddy_rank(2, 4) == 3
        assert buddy_rank(3, 4) == 2

    def test_odd_size_last_pairs_with_zero(self):
        assert buddy_rank(4, 5) == 0
        assert buddy_rank(0, 5) == 1  # 0's symmetric partner stays 1

    def test_single_rank_self(self):
        assert buddy_rank(0, 1) == 0


def run_app(n_ranks, main, n_spares=0, plan=None, keep_versions=2):
    """``main(role, handle, imr)`` under Fenix on every rank, one shared
    store; returns ``(results by world rank, imr, world)``."""
    cluster = fenix_cluster(n_ranks)
    world = World(cluster, n_ranks)
    world.trace.enabled = True
    system = FenixSystem(world, n_spares=n_spares)
    imr = IMRStore(world, keep_versions=keep_versions)
    results = {}

    def wrapped(rank):
        results[rank] = yield from system.run(
            world.context(rank), lambda role, h: main(role, h, imr))

    for r in range(n_ranks):
        world.spawn(r, wrapped(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    return results, imr, world


class TestStoreRestore:
    def test_local_roundtrip(self):
        imr_holder = {}

        def main(role, h):
            imr = imr_holder.setdefault(
                "store", IMRStore(h.ctx.world)
            )
            rt = KokkosRuntime()
            v = rt.view("x", data=np.arange(4.0) + h.rank)
            yield from imr.store(h.ctx, h, member_id=0, view=v, version=0)
            v.fill(-1.0)
            tier = yield from imr.restore(h.ctx, h, member_id=0, view=v, version=0)
            return (tier, v.data.copy())

        # NOTE: each rank builds its own IMRStore here only because this
        # test runs without failures; integration tests share one.
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        system = FenixSystem(world, n_spares=0)
        imr = IMRStore(world)
        results = {}

        def wrapped(rank):
            ctx = world.context(rank)

            def m(role, h):
                rt = KokkosRuntime()
                v = rt.view("x", data=np.arange(4.0) + h.rank)
                yield from imr.store(h.ctx, h, 0, v, 0)
                v.fill(-1.0)
                tier = yield from imr.restore(h.ctx, h, 0, v, 0)
                return (tier, v.data.copy())

            res = yield from system.run(ctx, m)
            results[rank] = res

        for r in range(2):
            world.spawn(r, wrapped(r))
        cluster.engine.run()
        for r in range(2):
            tier, data = results[r]
            assert tier == "local"
            assert np.array_equal(data, np.arange(4.0) + r)

    def test_available_versions_and_gc(self):
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        system = FenixSystem(world, n_spares=0)
        imr = IMRStore(world, keep_versions=2)
        out = {}

        def main(role, h):
            rt = KokkosRuntime()
            v = rt.view("x", shape=(4,))
            for version in range(4):
                v.fill(float(version))
                yield from imr.store(h.ctx, h, 0, v, version)
                imr.commit(h.ctx, h, version)
            out[h.rank] = sorted(imr.committed_versions(h.ctx, h))
            return "ok"

        def wrapped(rank):
            yield from system.run(world.context(rank), main)

        for r in range(2):
            world.spawn(r, wrapped(r))
        cluster.engine.run()
        assert out[0] == [2, 3]
        assert out[1] == [2, 3]


class TestFailureScenarios:
    def _failure_run(self, n_ranks=4, n_spares=1, victim=1, fail_iter=2):
        """Ranks store every iteration; victim dies; recovered restores."""
        plan = IterationFailure([(victim, fail_iter)])
        cluster = fenix_cluster(n_ranks)
        world = World(cluster, n_ranks)
        system = FenixSystem(world, n_spares=n_spares)
        imr = IMRStore(world)
        results = {}
        restores = []

        def main(role, h):
            rt = KokkosRuntime()
            v = rt.view("state", shape=(4,))
            if role is not Role.INITIAL:
                # Full rollback.  A checkpoint finished locally may not
                # have finished globally (the paper's metadata-refresh
                # issue): agree on the newest version EVERY rank holds.
                versions = imr.committed_versions(h.ctx, h)
                assert versions, "no IMR copies available after failure"
                local_latest = max(versions)
                latest = int((yield from h.allreduce(local_latest, op=MIN)))
                tier = yield from imr.restore(h.ctx, h, 0, v, latest)
                restores.append((h.rank, role, tier, latest, float(v.data[0])))
                start = latest + 1
            else:
                start = 0
            for i in range(start, 4):
                plan.check(h.ctx.rank, i)
                v.fill(float(i))
                yield from imr.store(h.ctx, h, 0, v, version=i)
                imr.commit(h.ctx, h, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        def wrapped(rank):
            ctx = world.context(rank)
            res = yield from system.run(ctx, main)
            results[rank] = res

        for r in range(n_ranks):
            world.spawn(r, wrapped(r), failure_plan=plan)
        cluster.engine.run()
        world.raise_job_errors()
        return results, restores, world

    def test_recovered_rank_restores_from_buddy(self):
        results, restores, world = self._failure_run(victim=1, fail_iter=2)
        by_role = {}
        for rank, role, tier, version, value in restores:
            by_role.setdefault(role, []).append((rank, tier, version, value))
        # the replacement (slot 1) pulled from its buddy; survivors local
        assert by_role[Role.RECOVERED] == [(1, "buddy", 1, 1.0)]
        assert all(t == "local" for _r, t, _v, _x in by_role[Role.SURVIVOR])
        assert all(v == 1 for _r, _t, v, _x in by_role[Role.SURVIVOR])  # agreed min
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [("finished", 0), ("finished", 1), ("finished", 2)]

    def test_dead_process_memory_is_gone(self):
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        imr = IMRStore(world)
        imr._slot(1)[("m", 0, 1)] = (np.zeros(2), 16.0)
        world.mark_dead(1)
        assert 1 not in imr._memory

    def test_restore_fails_when_both_copies_lost(self):
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        system = FenixSystem(world, n_spares=0)
        imr = IMRStore(world)
        caught = []

        def main(role, h):
            rt = KokkosRuntime()
            v = rt.view("x", shape=(2,))
            try:
                yield from imr.restore(h.ctx, h, 0, v, 0)
            except FenixError:
                caught.append(h.rank)
            return "ok"

        def wrapped(rank):
            yield from system.run(world.context(rank), main)

        for r in range(2):
            world.spawn(r, wrapped(r))
        cluster.engine.run()
        assert caught == [0, 1]

    def test_store_cost_scales_with_size(self):
        # IMR checkpoint-function cost must scale with checkpoint size
        # (Figure 5 discussion).
        def run_size(modeled):
            cluster = fenix_cluster(2)
            world = World(cluster, 2)
            system = FenixSystem(world, n_spares=0)
            imr = IMRStore(world)
            out = {}

            def main(role, h):
                rt = KokkosRuntime()
                v = rt.view("x", shape=(2,), modeled_nbytes=modeled)
                yield from imr.store(h.ctx, h, 0, v, 0)
                out[h.rank] = h.ctx.account.get("checkpoint_function")
                return "ok"

            def wrapped(rank):
                yield from system.run(world.context(rank), main)

            for r in range(2):
                world.spawn(r, wrapped(r))
            cluster.engine.run()
            return out[0]

        small = run_size(1e6)
        large = run_size(1e8)
        assert large > small * 20


class TestCommitSemantics:
    """store -> commit -> restorable (Fenix_Data_commit)."""

    def test_staged_not_restorable_before_commit(self):
        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.ones(4))
            yield from imr.store(h.ctx, h, 0, v, 0)
            return sorted(imr.committed_versions(h.ctx, h))

        results, _, _ = run_app(2, main)
        assert results[0] == results[1] == []

    def test_commit_of_nothing_marks_nothing(self):
        # DataGroup raised "commit with nothing staged"; the one store has
        # no staging area, and a mark is only ever written next to copies
        def main(role, h, imr):
            imr.commit(h.ctx, h, 0)
            return imr.committed_versions(h.ctx, h)
            yield  # a generator, like every main

        results, imr, _ = run_app(2, main)
        assert results[0] == results[1] == set()
        assert not any(imr._memory.values())

    def test_direct_callers_need_no_commit(self):
        # benchmarks/e2e/probes.py's shape: restore asks for a version by
        # number and finds the copy, committed or not
        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.arange(4.0) + h.rank)
            yield from imr.store(h.ctx, h, 0, v, 0)
            v.fill(-1.0)
            tier = yield from imr.restore(h.ctx, h, 0, v, 0)
            return tier, v.data.copy(), imr.committed_versions(h.ctx, h)

        results, _, _ = run_app(2, main)
        for rank in range(2):
            tier, data, committed = results[rank]
            assert tier == "local" and committed == set()
            assert np.array_equal(data, np.arange(4.0) + rank)

    def test_commit_makes_version_restorable(self):
        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.arange(4.0))
            yield from imr.store(h.ctx, h, 0, v, 0)
            imr.commit(h.ctx, h, 0)
            versions = sorted(imr.committed_versions(h.ctx, h))
            v.fill(0.0)
            tier = yield from imr.restore(h.ctx, h, 0, v, versions[-1])
            return versions, tier, v.data.copy()

        results, imr, world = run_app(2, main)
        versions, tier, data = results[0]
        assert versions == [0] and tier == "local"
        assert np.array_equal(data, np.arange(4.0))
        # the mark sits next to the copies: in the owner's memory and its buddy's
        for holder in (0, 1):
            assert ("committed", 0, 0) in imr._memory[holder]

    def test_commit_is_atomic_over_members(self):
        def main(role, h, imr):
            rt = KokkosRuntime()
            a = rt.view("a", data=np.ones(2))
            b = rt.view("b", data=np.full(2, 2.0))
            seen = []
            yield from imr.store(h.ctx, h, 0, a, 0)
            seen.append(sorted(imr.committed_versions(h.ctx, h)))
            yield from imr.store(h.ctx, h, 1, b, 0)
            seen.append(sorted(imr.committed_versions(h.ctx, h)))
            imr.commit(h.ctx, h, 0)
            seen.append(sorted(imr.committed_versions(h.ctx, h)))
            # half of the next version: the previous one is still the
            # answer, and still whole, even with one version retained
            a.fill(7.0)
            yield from imr.store(h.ctx, h, 0, a, 1)
            seen.append(sorted(imr.committed_versions(h.ctx, h)))
            yield from imr.restore(h.ctx, h, 0, a, 0)
            yield from imr.restore(h.ctx, h, 1, b, 0)
            return seen, float(a.data[0]), float(b.data[0])

        results, _, _ = run_app(2, main, keep_versions=1)
        assert results[0] == ([[], [], [0], [0]], 1.0, 2.0)

    def test_gc_keeps_recent_versions(self):
        def main(role, h, imr):
            v = KokkosRuntime().view("x", shape=(2,))
            for version in range(4):
                v.fill(float(version))
                yield from imr.store(h.ctx, h, 0, v, version)
                imr.commit(h.ctx, h, version)
            # committing an older version again collects nothing newer
            imr.commit(h.ctx, h, 2)
            return sorted(imr.committed_versions(h.ctx, h))

        results, imr, _ = run_app(2, main, keep_versions=2)
        assert results[0] == results[1] == [2, 3]
        # retention is applied to the copies and the marks alike, at both holders
        for holder in (0, 1):
            assert sorted({k[1] for k in imr._memory[holder]}) == [2, 3]


class TestFailureSemantics:
    def test_uncommitted_data_lost_with_owner(self):
        """Stored-but-uncommitted data is not restorable by the
        replacement, even though the buddy physically holds a copy."""
        plan = IterationFailure([(1, 1)])
        log = {}

        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.full(2, float(h.rank)))
            if role is not Role.INITIAL:
                if role is Role.RECOVERED:
                    log["recovered"] = sorted(imr.committed_versions(h.ctx, h))
                    log["at_buddy"] = {
                        k for k in imr._memory[0] if k[2] == h.rank}
                return role.value  # post-failure path is collective-free
            for version in range(2):
                yield from imr.store(h.ctx, h, 0, v, version)
                plan.check(h.ctx.rank, version)  # v1: dies before commit
                imr.commit(h.ctx, h, version)
                yield from h.allreduce(1, op=SUM)
            return "done"

        run_app(4, main, n_spares=1, plan=plan)
        assert log["recovered"] == [0]
        assert log["at_buddy"] == {(0, 0, 1), (0, 1, 1), ("committed", 0, 1)}

    def test_buddy_restore_after_owner_death(self):
        plan = IterationFailure([(1, 1)])
        log = {}

        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.full(2, 10.0 + h.rank))
            if role is not Role.INITIAL:
                if role is Role.RECOVERED:
                    v.fill(0.0)
                    versions = imr.committed_versions(h.ctx, h)
                    tier = yield from imr.restore(h.ctx, h, 0, v, max(versions))
                    log["restore"] = (tier, float(v.data[0]))
                return role.value
            yield from imr.store(h.ctx, h, 0, v, 0)
            imr.commit(h.ctx, h, 0)
            yield from h.allreduce(1, op=SUM)
            plan.check(h.ctx.rank, 1)
            yield from h.allreduce(1, op=SUM)
            return "done"

        run_app(4, main, n_spares=1, plan=plan)
        assert log["restore"] == ("buddy", 11.0)  # rank 1's committed data

    def _two_kills(self, n_members, kills):
        """Everyone checkpoints v0 through the backend; then the two
        ``(world rank, step)`` kills land one repair apart, and after each
        every rank asks, agrees and restores.  Returns what each slot
        answered at each re-entry, what was agreed, and the world."""
        plan = IterationFailure(kills)
        answered, agreed = [], []

        def main(role, h, imr):
            v = KokkosRuntime().view("x", data=np.full(2, 10.0 + h.rank))
            backend = FenixIMRBackend(imr, h)
            if role is Role.INITIAL:
                backend.register_views([v])
                yield from backend.checkpoint(0)
                yield from h.allreduce(1, op=SUM)
            else:
                answered.append(
                    (h.rank, h.ctx.rank, sorted(backend.local_versions())))
                latest = yield from backend.latest_version()
                if h.rank == 0:
                    agreed.append(latest)
                if latest >= 0:
                    v.fill(0.0)
                    yield from backend.restore(latest, [v])
                    assert v.data[0] == 10.0 + h.rank
            for step in (1, 2):
                plan.check(h.ctx.rank, step)
                yield from h.allreduce(1, op=SUM)
            return "done"

        _, _, world = run_app(n_members + 2, main, n_spares=2, plan=plan)
        assert world.dead == {rank for rank, _ in kills}
        return answered, agreed, world

    def test_restore_recommits(self):
        """Slot 4 of 5 (the odd rank out: only slot 0 holds its copies)
        is replaced and restores v0 from slot 0; then slot 0's process
        dies.  The replacement still answers v0, from its own memory."""
        answered, agreed, world = self._two_kills(5, [(4, 1), (0, 2)])
        # world rank 5 took slot 4: first as the replacement, then a survivor
        assert [a[1:] for a in answered if a[0] == 4] == [(5, [0]), (5, [0])]
        assert agreed == [0, 0]
        tiers = [r["tier"] for r in world.trace.records(kind="imr_restore")
                 if r.source == "imr.rank4"]
        assert tiers == ["buddy", "local"]

    def test_a_replacement_buddy_gets_no_mark(self):
        """Slot 1 is replaced; slot 0 restores locally and re-commits, but
        its new buddy never received slot 0's copies.  When slot 0 dies
        too the version is lost (both of a pair) and slot 0's replacement
        must say so -- a mark at the buddy would have it agree to v0 and
        stop with ``FenixError("IMR: no copy ...")``."""
        answered, agreed, _ = self._two_kills(4, [(1, 1), (0, 2)])
        assert [a[1:] for a in answered if a[0] == 0] == [(0, [0]), (5, [])]
        assert agreed == [0, -1]

    def test_store_keeps_no_copy_in_a_dead_buddy(self):
        """The buddy died a moment before the store: the transfer is
        still paid and recorded (the sender cannot know), but a corpse
        keeps nothing.  Was: ``_slot()`` re-created the dead rank's entry
        and a later restore could read a dead process's memory."""
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        world.trace.enabled = True
        imr = IMRStore(world)
        v = KokkosRuntime().view("x", data=np.ones(2))

        def owner():
            h = world.comm_world_handle(0)
            yield cluster.engine.timeout(1.0)
            yield from imr.store(h.ctx, h, 0, v, 0)
            imr.commit(h.ctx, h, 0)

        def buddy():
            yield cluster.engine.timeout(2.0)

        plan = TimedFailure([(1, 0.5)])
        world.spawn(0, owner(), failure_plan=plan)
        world.spawn(1, buddy(), failure_plan=plan)
        cluster.engine.run()
        assert world.dead == {1}
        assert 1 not in imr._memory
        assert set(imr._memory[0]) == {(0, 0, 0), ("committed", 0, 0)}
        assert world.trace.count("imr_buddy_send") == 1
