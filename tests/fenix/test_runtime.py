"""Fenix runtime: roles, spare consumption, repair, long-jump recovery."""

import pytest

from repro.fenix import FenixSystem, Role, SpareExhaustionError
from repro.mpi import SUM, World
from repro.sim import IterationFailure
from repro.util.errors import ConfigError
from tests.fenix.conftest import fenix_cluster, run_fenix


class TestNoFailureRuns:
    def test_active_ranks_run_main_once(self):
        entries = []

        def main(role, h):
            entries.append((h.ctx.rank, role))
            total = yield from h.allreduce(1, op=SUM)
            return int(total)

        results, system, world = run_fenix(4, n_spares=1, main=main)
        # 3 active ranks ran main; the spare returned None
        assert sorted(r for r, _ in entries) == [0, 1, 2]
        assert all(role is Role.INITIAL for _, role in entries)
        assert results[0] == results[1] == results[2] == 3
        assert results[3] is None

    def test_resilient_comm_excludes_spares(self):
        sizes = []

        def main(role, h):
            sizes.append((h.rank, h.size))
            yield from h.allreduce(0)
            return "ok"

        run_fenix(5, n_spares=2, main=main)
        assert sorted(sizes) == [(0, 3), (1, 3), (2, 3)]

    def test_spares_released_at_job_end(self):
        # If spares were not released, engine.run() would deadlock.
        def main(role, h):
            yield from h.allreduce(0)
            return "done"

        results, _, world = run_fenix(3, n_spares=2, main=main)
        assert results[0] == "done"
        assert results[1] is None and results[2] is None

    def test_zero_spares_allowed(self):
        def main(role, h):
            total = yield from h.allreduce(1, op=SUM)
            return int(total)

        results, _, _ = run_fenix(2, n_spares=0, main=main)
        assert results == {0: 2, 1: 2}

    def test_invalid_spare_count_rejected(self):
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        with pytest.raises(ConfigError):
            FenixSystem(world, n_spares=2)
        with pytest.raises(ConfigError):
            FenixSystem(world, n_spares=-1)


class TestSingleFailureRecovery:
    def _run_with_failure(self, n_ranks=4, n_spares=1, victim=1, fail_iter=3):
        plan = IterationFailure([(victim, fail_iter)])
        journal = []

        def main(role, h):
            journal.append(("enter", h.ctx.rank, role, h.rank))
            for i in range(6):
                h.ctx.world  # no-op
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        results, system, world = run_fenix(
            n_ranks, n_spares=n_spares, main=main, plan=plan
        )
        return results, system, world, journal

    def test_all_ranks_finish_after_recovery(self):
        results, system, world, journal = self._run_with_failure()
        # active slots are comm ranks 0..2; all must report finished
        finished = [v for v in results.values() if v is not None]
        assert sorted(finished) == [("finished", 0), ("finished", 1), ("finished", 2)]

    def test_victim_is_dead_and_spare_consumed(self):
        results, system, world, journal = self._run_with_failure()
        assert world.dead == {1}
        assert system.spare_pool == []  # the one spare was consumed
        assert 1 not in results  # the killed process never returned

    def test_roles_after_recovery(self):
        results, system, world, journal = self._run_with_failure()
        reentries = [(r, role) for kind, r, role, _ in journal if kind == "enter"]
        # initial entries for 0,1,2; after failure: survivors 0,2 re-enter
        # as SURVIVOR and world rank 3 (the spare) enters as RECOVERED
        roles_by_rank = {}
        for r, role in reentries:
            roles_by_rank.setdefault(r, []).append(role)
        assert roles_by_rank[0] == [Role.INITIAL, Role.SURVIVOR]
        assert roles_by_rank[2] == [Role.INITIAL, Role.SURVIVOR]
        assert roles_by_rank[3] == [Role.RECOVERED]

    def test_replacement_adopts_failed_comm_rank(self):
        results, system, world, journal = self._run_with_failure(victim=1)
        recovered_entries = [
            (r, comm_rank)
            for kind, r, role, comm_rank in journal
            if kind == "enter" and role is Role.RECOVERED
        ]
        assert recovered_entries == [(3, 1)]  # world rank 3 sits in slot 1

    def test_comm_size_preserved(self):
        results, system, world, _ = self._run_with_failure()
        assert system.resilient_comm.size == 3
        assert system.generation == 1

    def test_detection_recorded(self):
        _, system, _, _ = self._run_with_failure()
        assert len(system.detections) >= 1
        assert all(d["error"] in ("ProcFailedError", "RevokedError")
                   for d in system.detections)


class TestMultipleFailures:
    def test_two_sequential_failures_consume_two_spares(self):
        plan = IterationFailure([(0, 2), (1, 4)])

        def main(role, h):
            for i in range(6):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        results, system, world = run_fenix(5, n_spares=2, main=main, plan=plan)
        assert world.dead == {0, 1}
        assert system.generation == 2
        assert system.spare_pool == []
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [("finished", 0), ("finished", 1), ("finished", 2)]

    def test_shrink_policy_when_spares_exhausted(self):
        plan = IterationFailure([(0, 2)])

        def main(role, h):
            for i in range(5):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank, h.size)

        results, system, world = run_fenix(
            3, n_spares=0, main=main, plan=plan, spare_policy="shrink"
        )
        # comm shrank from 3 to 2 survivors
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [("finished", 0, 2), ("finished", 1, 2)]
        assert system.resilient_comm.size == 2

    def test_abort_policy_when_spares_exhausted(self):
        plan = IterationFailure([(0, 2)])

        def main(role, h):
            for i in range(5):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return "finished"

        with pytest.raises(SpareExhaustionError):
            run_fenix(3, n_spares=0, main=main, plan=plan, spare_policy="abort")


class TestCallbacks:
    def test_callbacks_run_on_every_entry(self):
        calls = []
        plan = IterationFailure([(1, 2)])

        def main(role, h):
            calls.append((h.ctx.rank, role))
            for i in range(4):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return "done"

        cluster = fenix_cluster(4)
        from repro.mpi import World

        world = World(cluster, 4)
        system = FenixSystem(world, n_spares=1)
        for r in range(4):
            world.spawn(r, system.run(world.context(r), main),
                        failure_plan=plan)
        cluster.engine.run()
        world.raise_job_errors()
        initial = [c for c in calls if c[1] is Role.INITIAL]
        survivors = [c for c in calls if c[1] is Role.SURVIVOR]
        recovered = [c for c in calls if c[1] is Role.RECOVERED]
        assert len(initial) == 3
        assert len(survivors) == 2
        assert recovered == [(3, Role.RECOVERED)]


class TestAccounting:
    def test_init_cost_charged(self):
        def main(role, h):
            yield from h.allreduce(0)
            return h.ctx.account.get("resilience_init")

        results, _, _ = run_fenix(2, n_spares=0, main=main)
        assert all(v > 0 for v in results.values())
