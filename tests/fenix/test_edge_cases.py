"""Fenix edge cases: spare death, failure timing, role predicates."""

import pytest

from repro.fenix import FenixSystem, Role
from repro.mpi import SUM, World
from repro.sim import IterationFailure, TimedFailure
from tests.fenix.conftest import fenix_cluster, run_fenix


class TestRolePredicates:
    def test_needs_full_init(self):
        assert Role.INITIAL.needs_full_init
        assert not Role.SURVIVOR.needs_full_init
        assert not Role.RECOVERED.needs_full_init

    def test_needs_data_recovery(self):
        assert Role.RECOVERED.needs_data_recovery
        assert not Role.SURVIVOR.needs_data_recovery


class TestSpareDeath:
    def test_dead_spare_does_not_block_repair(self):
        """A spare that dies while idle must not hang the repair gate."""
        cluster = fenix_cluster(5)
        world = World(cluster, 5)
        system = FenixSystem(world, n_spares=2)  # spares: ranks 3, 4
        # each iteration lasts 0.5 s; rank 3 (the first spare) dies at
        # t=0.7 (during iteration 1), then rank 1 dies at iteration 2
        plan = IterationFailure([(1, 2)])
        spare_killer = TimedFailure([(3, 0.7)])
        results = {}

        def main(role, h):
            for i in range(5):
                plan.check(h.ctx.rank, i)
                yield from h.ctx.sleep(0.5)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        def wrapped(rank):
            ctx = world.context(rank)
            res = yield from system.run(ctx, main)
            results[rank] = res

        for r in range(5):
            proc = world.spawn(r, wrapped(r), failure_plan=plan)
            spare_killer.arm(cluster.engine, r, proc)
        cluster.engine.run()
        world.raise_job_errors()
        # the surviving spare (rank 4) replaced rank 1
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [("finished", 0), ("finished", 1), ("finished", 2)]
        assert world.dead == {1, 3}

    def test_spare_only_death_does_not_strand_other_spares(self):
        """A failure that kills only an idle spare must not send the
        remaining spares to a repair gate: no resilient-comm member
        died, so no survivor will ever rendezvous there -- they must
        resume waiting and exit cleanly at job end."""
        cluster = fenix_cluster(6)
        world = World(cluster, 6)
        system = FenixSystem(world, n_spares=3)  # spares: ranks 3, 4, 5
        spare_killer = TimedFailure([(4, 0.7)])
        results = {}

        def main(role, h):
            for _ in range(4):
                yield from h.ctx.sleep(0.5)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        def wrapped(rank):
            ctx = world.context(rank)
            res = yield from system.run(ctx, main)
            results[rank] = res

        for r in range(6):
            proc = world.spawn(r, wrapped(r))
            spare_killer.arm(cluster.engine, r, proc)
        cluster.engine.run()  # deadlocks here if spares hit the gate
        world.raise_job_errors()
        finished = sorted(v for v in results.values()
                          if isinstance(v, tuple))
        assert finished == [("finished", 0), ("finished", 1),
                            ("finished", 2)]
        assert world.dead == {4}
        # the untouched spares were released, not stranded
        assert results[3] is None and results[5] is None

    def test_dead_spare_not_selected_as_replacement(self):
        cluster = fenix_cluster(4)
        world = World(cluster, 4)
        system = FenixSystem(world, n_spares=1, spare_policy="shrink")
        world.mark_dead(3)  # the only spare dies before anything happens
        world.mark_dead(1)  # an active rank dies
        result = system._finalize_repair({0: None, 2: None})
        # shrink policy: slot dropped, comm has 2 members
        assert result.comm.size == 2
        assert result.roles == {
            0: Role.SURVIVOR,
            2: Role.SURVIVOR,
        }


class TestFailureBeforeAnyCommunication:
    def test_rank_dies_at_iteration_zero(self):
        plan = IterationFailure([(2, 0)])

        def main(role, h):
            for i in range(3):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        results, system, world = run_fenix(4, n_spares=1, main=main, plan=plan)
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [("finished", 0), ("finished", 1), ("finished", 2)]


class TestPreInitFailure:
    def test_rank_dead_before_spare_starts_waiting(self):
        """A rank that dies before the spares reach their wait (e.g.
        during job startup) must still be repaired: the spare checks for
        pending failures before blocking on the failure event."""
        cluster = fenix_cluster(4)
        world = World(cluster, 4)
        system = FenixSystem(world, n_spares=1)
        results = {}

        def main(role, h):
            for i in range(3):
                yield from h.ctx.sleep(0.1)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank, role.value)

        def wrapped(rank, start_delay):
            ctx = world.context(rank)
            yield from ctx.sleep(start_delay)
            res = yield from system.run(ctx, main)
            results[rank] = res

        killer = TimedFailure([(1, 0.5)])
        for r in range(4):
            # everyone (including the spare) starts at t=1.0; rank 1 is
            # killed at t=0.5, before Fenix init
            proc = world.spawn(r, wrapped(r, 1.0))
            killer.arm(cluster.engine, r, proc)
        cluster.engine.run()
        world.raise_job_errors()
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert [f[:2] for f in finished] == [
            ("finished", 0), ("finished", 1), ("finished", 2),
        ]
        # the replacement for slot 1 is the spare, role RECOVERED
        roles = {f[1]: f[2] for f in finished}
        assert roles[1] == "recovered"


class TestBackToBackFailures:
    def test_failures_in_consecutive_iterations(self):
        plan = IterationFailure([(0, 2), (1, 3)])

        def main(role, h):
            for i in range(5):
                plan.check(h.ctx.rank, i)
                yield from h.allreduce(1, op=SUM)
            return ("finished", h.rank)

        results, system, world = run_fenix(5, n_spares=2, main=main, plan=plan)
        assert system.generation == 2
        finished = sorted(v for v in results.values() if isinstance(v, tuple))
        assert finished == [
            ("finished", 0), ("finished", 1), ("finished", 2),
        ]
