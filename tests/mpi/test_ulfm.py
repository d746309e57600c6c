"""ULFM fault-tolerance semantics: failure reporting, revoke, shrink, agree."""

import pytest

from repro.mpi import ProcFailedError, RevokedError, SUM, World
from repro.sim import TimedFailure
from repro.sim.failures import RankKilledError
from tests.mpi.conftest import small_cluster


def run_world(n_ranks, body, kills=None):
    """Run body(handle) on every rank with optional timed kills."""
    cluster = small_cluster(n_ranks)
    world = World(cluster, n_ranks)
    plan = TimedFailure(kills or [])
    results = {}

    def main(rank):
        handle = world.comm_world_handle(rank)
        res = yield from body(handle)
        results[rank] = res

    for r in range(n_ranks):
        world.spawn(r, main(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    return results, world


class TestFailureReporting:
    def test_send_to_dead_rank_raises(self):
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)  # will be killed at t=1
                return "unreachable"
            if h.rank == 0:
                yield from h.ctx.sleep(2.0)  # wait until 1 is dead
                try:
                    yield from h.send("hi", dest=1)
                except ProcFailedError as exc:
                    return ("failed", sorted(exc.ranks))
            return None

        results, world = run_world(2, body, kills=[(1, 1.0)])
        assert results[0] == ("failed", [1])
        assert world.dead == {1}

    def test_recv_from_dead_rank_raises(self):
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            if h.rank == 0:
                yield from h.ctx.sleep(2.0)
                try:
                    yield from h.recv(source=1)
                except ProcFailedError:
                    return "reported"
            return None

        results, _ = run_world(2, body, kills=[(1, 1.0)])
        assert results[0] == "reported"

    def test_pending_recv_interrupted_by_death(self):
        # rank 0 posts the recv BEFORE rank 1 dies; the failure must
        # interrupt the pending operation (ULFM requirement).
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            if h.rank == 0:
                try:
                    yield from h.recv(source=1)
                except ProcFailedError:
                    return ("interrupted", h.engine.now)
            return None

        results, _ = run_world(2, body, kills=[(1, 5.0)])
        tag, when = results[0]
        assert tag == "interrupted"
        assert when == pytest.approx(5.0)

    def test_message_sent_before_death_still_deliverable(self):
        # Data that left the sender before it died is delivered (matches
        # MPI completion semantics for already-buffered messages).
        def body(h):
            if h.rank == 1:
                yield from h.send("legacy", dest=0)  # eager: buffered
                yield from h.ctx.sleep(100.0)
                return None
            if h.rank == 0:
                yield from h.ctx.sleep(2.0)  # rank 1 died at t=1
                data = yield from h.recv(source=1)
                return data
            return None

        results, _ = run_world(2, body, kills=[(1, 1.0)])
        assert results[0] == "legacy"

    def test_collective_entry_fails_with_dead_member(self):
        def body(h):
            if h.rank == 2:
                yield from h.ctx.sleep(100.0)
                return None
            yield from h.ctx.sleep(2.0)
            try:
                yield from h.allreduce(1, op=SUM)
            except ProcFailedError:
                return "collective-failed"
            return None

        results, _ = run_world(3, body, kills=[(2, 1.0)])
        assert results[0] == "collective-failed"
        assert results[1] == "collective-failed"

    def test_get_failed_lists_dead(self):
        # MPI_Comm_get_failed's answer, as Fenix's runtime reads it
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            yield from h.ctx.sleep(2.0)
            return h.comm.failed_members()

        results, _ = run_world(3, body, kills=[(1, 1.0)])
        assert results[0] == [1]
        assert results[2] == [1]


class TestRevoke:
    def test_revoke_wakes_blocked_ranks(self):
        # rank 2 blocks in a recv that would never complete; rank 0
        # revokes; rank 2 must get RevokedError promptly.
        def body(h):
            if h.rank == 0:
                yield from h.ctx.sleep(1.0)
                h.revoke()
                return "revoked"
            try:
                yield from h.recv(source=0, tag=99)
            except RevokedError:
                return ("woken", h.engine.now)
            return None

        results, _ = run_world(3, body)
        assert results[0] == "revoked"
        assert results[1][0] == "woken"
        assert results[1][1] == pytest.approx(1.0)
        assert results[2][0] == "woken"

    def test_operations_after_revoke_raise(self):
        def body(h):
            h.revoke()
            try:
                yield from h.send("x", dest=(h.rank + 1) % h.size)
            except RevokedError:
                return "rejected"
            return None

        results, _ = run_world(2, body)
        assert all(v == "rejected" for v in results.values())

    def test_revoke_idempotent(self):
        def body(h):
            h.revoke()
            h.revoke()
            return "ok"
            yield  # pragma: no cover - make it a generator

        results, _ = run_world(2, body)
        assert all(v == "ok" for v in results.values())


class TestAgree:
    def test_agree_ands_flags(self):
        def body(h):
            flag = h.rank != 1
            result, failed = yield from h.agree(flag)
            return (result, sorted(failed))

        results, _ = run_world(3, body)
        assert all(v == (False, []) for v in results.values())

    def test_agree_all_true(self):
        def body(h):
            result, _ = yield from h.agree(True)
            return result

        results, _ = run_world(4, body)
        assert all(v is True for v in results.values())

    def test_agree_works_on_revoked_comm(self):
        def body(h):
            if h.rank == 0:
                h.revoke()
            result, _ = yield from h.agree(True)
            return result

        results, _ = run_world(3, body)
        assert all(v is True for v in results.values())

    def test_agree_completes_despite_death_during_wait(self):
        # rank 2 dies before arriving at agree; survivors must not hang.
        def body(h):
            if h.rank == 2:
                yield from h.ctx.sleep(100.0)
                return None
            result, failed = yield from h.agree(True)
            return (result, sorted(failed))

        results, _ = run_world(3, body, kills=[(2, 1.0)])
        assert results[0] == (True, [2])
        assert results[1] == (True, [2])


class TestShrink:
    def test_shrink_excludes_dead(self):
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            yield from h.ctx.sleep(2.0)
            new_h = yield from h.shrink()
            return (new_h.rank, new_h.size)

        results, _ = run_world(3, body, kills=[(1, 1.0)])
        # survivors 0 and 2 keep relative order: 0 -> rank0, 2 -> rank1
        assert results[0] == (0, 2)
        assert results[2] == (1, 2)

    def test_shrunk_comm_is_usable(self):
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            yield from h.ctx.sleep(2.0)
            new_h = yield from h.shrink()
            total = yield from new_h.allreduce(1, op=SUM)
            return int(total)

        results, _ = run_world(4, body, kills=[(1, 1.0)])
        assert results[0] == 3
        assert results[2] == 3
        assert results[3] == 3

    def test_shrink_on_revoked_comm(self):
        def body(h):
            if h.rank == 0:
                h.revoke()
            new_h = yield from h.shrink()
            return new_h.size

        results, _ = run_world(3, body)
        assert all(v == 3 for v in results.values())


class TestWorldBookkeeping:
    def test_failure_watch_fires_with_rank(self):
        observed = {}

        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
                return None
            if h.rank == 0:
                dead_rank = yield h.ctx.world.failure_watch()
                observed["dead"] = dead_rank
            return None

        run_world(2, body, kills=[(1, 3.0)])
        assert observed["dead"] == 1

    def test_crash_surfaces_via_raise_job_errors(self):
        def body(h):
            if h.rank == 0:
                yield from h.ctx.sleep(0.1)
                raise RuntimeError("app bug")
            yield from h.ctx.sleep(0.1)
            return None

        cluster = small_cluster(2)
        world = World(cluster, 2)

        def main(rank):
            handle = world.comm_world_handle(rank)
            yield from body(handle)

        for r in range(2):
            world.spawn(r, main(r))
        cluster.engine.run()
        with pytest.raises(RuntimeError, match="app bug"):
            world.raise_job_errors()

    def test_alive_ranks_updates(self):
        def body(h):
            if h.rank == 1:
                yield from h.ctx.sleep(100.0)
            else:
                yield from h.ctx.sleep(2.0)
            return None

        _, world = run_world(3, body, kills=[(1, 1.0)])
        assert world.alive_ranks() == [0, 2]
        assert not world.is_alive(1)
