"""Tests demonstrating the integration problems the paper fixes.

Section V: "The typical [VeloC] initialization call takes an MPI
Communicator as input and does not include the functionality to replace
this communicator" and "The VeloC backend in [Kokkos Resilience] does not
allow initializing VeloC in single mode, and contains state-based
information which cannot be reset after a process failure."

These tests show the failure modes the paper's modifications remove:
stale-communicator errors after repair, and the local-vs-global checkpoint
disagreement that the metadata reset + reduction fixes.
"""

import pytest

from repro.core import KRConfig, every_nth, make_context
from repro.fenix import FenixSystem, Role
from repro.kokkos import KokkosRuntime
from repro.mpi import CommHandle, RevokedError, World
from repro.sim import IterationFailure
from repro.veloc import VeloCClient, VeloCConfig, VeloCService
from tests.fenix.conftest import fenix_cluster


class TestStaleCommunicator:
    def test_collective_query_on_stale_comm_raises_after_repair(self):
        """Stock behaviour: VeloC keeps the communicator it was
        initialized with; after a Fenix repair that communicator is
        revoked, so the collective best-version query errors instead of
        completing -- exactly why the paper needs single mode + reset."""
        plan = IterationFailure([(1, 2)])
        cluster = fenix_cluster(4)
        world = World(cluster, 4)
        system = FenixSystem(world, n_spares=1)
        service = VeloCService(cluster)
        observed = []

        def main(role, h):
            ctx = h.ctx
            persistent = ctx.user.setdefault("app", {})
            if "client" not in persistent or role is Role.RECOVERED:
                # stock init: collective mode, bound to the CURRENT comm.
                # (A handler-free handle is used so the error surfaces as
                # RevokedError here instead of re-entering Fenix recovery
                # forever -- the livelock stock VeloC+Fenix would hit.)
                rt = KokkosRuntime()
                v = rt.view("x", shape=(4,))
                client = VeloCClient(
                    ctx, cluster, service,
                    VeloCConfig(mode="collective"),
                    comm=CommHandle(h.comm, ctx),
                )
                client.mem_protect(0, v)
                persistent["client"] = client
            client = persistent["client"]
            if role is Role.SURVIVOR:
                # deliberately NOT calling client.set_comm(h): stock VeloC
                # has no way to replace its communicator.
                try:
                    # drive the raw (unhandled) collective query on the
                    # stale communicator object
                    yield from client.restart_test()
                except RevokedError:
                    observed.append(ctx.rank)
                return "survivor-done"
            if role is Role.RECOVERED:
                return "recovered-done"  # keep the exit collective-free
            for i in range(4):
                plan.check(ctx.rank, i)
                yield from client.checkpoint(i)
                yield from h.allreduce(1)
            return "done"

        def wrapped(rank):
            yield from system.run(world.context(rank), main)

        for r in range(4):
            world.spawn(r, wrapped(r), failure_plan=plan)
        cluster.engine.run()
        # every survivor hit the stale-communicator error
        assert sorted(observed) == [0, 2]

    def test_set_comm_fixes_the_stale_query(self):
        """With the paper's modification (reset pushes the repaired
        communicator down), the same query completes."""
        plan = IterationFailure([(1, 2)])
        cluster = fenix_cluster(4)
        world = World(cluster, 4)
        system = FenixSystem(world, n_spares=1)
        service = VeloCService(cluster)
        answers = []

        def main(role, h):
            ctx = h.ctx
            persistent = ctx.user.setdefault("app", {})
            if "client" not in persistent or role is Role.RECOVERED:
                rt = KokkosRuntime()
                v = rt.view("x", shape=(4,))
                client = VeloCClient(
                    ctx, cluster, service,
                    VeloCConfig(mode="single"), comm=h,
                )
                client.mem_protect(0, v)
                persistent["client"] = client
            client = persistent["client"]
            if role is not Role.INITIAL:
                client.set_comm(h)  # the paper's added hook
                local = client.local_versions()
                best = max(local) if local else -1
                from repro.mpi import MIN

                agreed = yield from h.allreduce(best, op=MIN)
                answers.append((ctx.rank, int(agreed)))
                return "recovered-path"
            for i in range(4):
                plan.check(ctx.rank, i)
                yield from client.checkpoint(i)
                yield from h.allreduce(1)
            return "done"

        def wrapped(rank):
            yield from system.run(world.context(rank), main)

        for r in range(4):
            world.spawn(r, wrapped(r), failure_plan=plan)
        cluster.engine.run()
        world.raise_job_errors()
        # all three active ranks agreed on a version; the replacement
        # (holding nothing) drags agreement to -1, exposing why the full
        # system must consult persistent tiers -- covered elsewhere.
        assert len(answers) == 3
        assert len({v for _r, v in answers}) == 1


class TestMetadataCacheMotivation:
    def test_locally_finished_checkpoint_not_globally_visible(self):
        """"a checkpoint finished locally may not have finished globally":
        immediately after rank 0 checkpoints, its local latest is ahead of
        the globally agreed version."""
        cluster = fenix_cluster(2)
        world = World(cluster, 2)
        system = FenixSystem(world, n_spares=0)
        service = VeloCService(cluster)
        config = KRConfig(backend="veloc", filter=every_nth(1, offset=-1))
        out = {}

        def main(role, h):
            kr = make_context(h, config, cluster, veloc_service=service)
            rt = KokkosRuntime()
            v = rt.view("x", shape=(2,))
            yield from kr.checkpoint("r", 0, lambda: v.fill(1.0))
            if h.rank == 0:
                yield from kr.checkpoint("r", 1, lambda: v.fill(2.0))
            local = kr.backend.local_versions()
            agreed = yield from kr.backend.latest_version()
            out[h.rank] = (max(local), agreed)
            return "ok"

        def wrapped(rank):
            yield from system.run(world.context(rank), main)

        for r in range(2):
            world.spawn(r, wrapped(r))
        cluster.engine.run()
        world.raise_job_errors()
        assert out[0] == (1, 0)  # locally ahead, globally held back
        assert out[1] == (0, 0)
