"""VeloC client behaviour: protect, checkpoint, query, recover."""

import numpy as np
import pytest

from repro.mpi import World
from repro.kokkos import KokkosRuntime
from repro.util.errors import ConfigError
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY
from repro.veloc import VeloCClient, VeloCConfig, VeloCService
from repro.veloc.client import VeloCError
from tests.veloc.conftest import (
    flush_pending,
    run_veloc_ranks,
    veloc_cluster,
    wait_flushes,
)


class TestProtect:
    def test_protect_and_total(self):
        def body(client, h, rt):
            v = rt.view("state", shape=(100,))
            client.mem_protect(0, v)
            assert client.protected_nbytes() == 800.0
            return "ok"
            yield  # pragma: no cover

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == "ok"

    def test_conflicting_region_id_rejected(self):
        def body(client, h, rt):
            client.mem_protect(0, rt.view("a", shape=(2,)))
            with pytest.raises(ConfigError):
                client.mem_protect(0, rt.view("b", shape=(2,)))
            return "ok"
            yield  # pragma: no cover

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == "ok"

    def test_checkpoint_without_regions_rejected(self):
        def body(client, h, rt):
            with pytest.raises(VeloCError):
                yield from client.checkpoint(0)
            return "ok"

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == "ok"


class TestCheckpointRecover:
    def test_roundtrip_from_scratch(self):
        def body(client, h, rt):
            v = rt.view("state", data=np.arange(10.0))
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            v.fill(-1.0)
            yield from client.recover(0)
            return v.data.copy()

        results, _ = run_veloc_ranks(1, body)
        assert np.array_equal(results[0], np.arange(10.0))

    def test_multiple_regions(self):
        def body(client, h, rt):
            a = rt.view("a", data=np.ones(4))
            b = rt.view("b", data=np.full(6, 2.0))
            client.mem_protect(1, a)
            client.mem_protect(2, b)
            yield from client.checkpoint(0)
            a.fill(0)
            b.fill(0)
            yield from client.recover(0)
            return (a.data.sum(), b.data.sum())

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == (4.0, 12.0)

    def test_versions_are_independent(self):
        def body(client, h, rt):
            v = rt.view("x", data=np.zeros(4))
            client.mem_protect(0, v)
            for version in range(3):
                v.fill(float(version))
                yield from client.checkpoint(version)
            yield from client.recover(1)
            return float(v.data[0])

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == 1.0

    def test_recover_missing_version_raises(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(2,))
            client.mem_protect(0, v)
            with pytest.raises(VeloCError):
                yield from client.recover(7)
            return "ok"

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == "ok"

    def test_recover_from_pfs_after_scratch_loss(self):
        # Simulates a replacement process: scratch gone, PFS survives.
        def body(client, h, rt):
            v = rt.view("x", data=np.arange(8.0))
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            yield from wait_flushes(client)
            client.ctx.node.wipe()  # lose scratch
            v.fill(0.0)
            yield from client.recover(0)
            return v.data.copy()

        results, _ = run_veloc_ranks(1, body)
        assert np.array_equal(results[0], np.arange(8.0))

    def test_pfs_recover_refills_scratch(self):
        def body(client, h, rt):
            v = rt.view("x", data=np.ones(4))
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            yield from wait_flushes(client)
            client.ctx.node.wipe()
            yield from client.recover(0)
            return client._key(0) in client.ctx.node.scratch

        results, _ = run_veloc_ranks(1, body)
        assert results[0] is True

    def test_time_accounting(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(10,), modeled_nbytes=1e8)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            yield from client.recover(0)
            acct = client.ctx.account
            return (acct.get(CHECKPOINT_FUNCTION), acct.get(DATA_RECOVERY))

        results, _ = run_veloc_ranks(1, body)
        ckpt_t, rec_t = results[0]
        assert ckpt_t == pytest.approx(1e8 / 1e10)  # one memcpy
        assert rec_t == pytest.approx(1e8 / 1e10)


class TestAsyncFlush:
    def test_checkpoint_returns_before_flush(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(10,), modeled_nbytes=1e8)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            t_after_ckpt = h.engine.now
            pending = flush_pending(client)
            yield from wait_flushes(client)
            t_after_flush = h.engine.now
            return (t_after_ckpt, pending, t_after_flush)

        results, _ = run_veloc_ranks(1, body, pfs_bw=1e8)
        t_ckpt, pending, t_flush = results[0]
        assert pending == [0]
        # flush (1e8 bytes at 1e8 B/s ~ 1s) far exceeds the sync memcpy
        assert t_flush - t_ckpt > 0.5
        assert t_ckpt < 0.1

    def test_scratch_gc_keeps_recent(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(4,))
            client.mem_protect(0, v)
            for version in range(5):
                yield from client.checkpoint(version)
            return sorted(
                k[2] for k in client.ctx.node.scratch if k[0] == "veloc"
            )

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == [3, 4]  # keep_versions=2

    def test_local_versions_includes_pfs(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(4,))
            client.mem_protect(0, v)
            for version in range(4):
                yield from client.checkpoint(version)
            yield from wait_flushes(client)
            client.ctx.node.wipe()
            return sorted(client.local_versions())

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == [0, 1, 2, 3]


class TestRestartTest:
    def test_single_mode_local_only(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(4,))
            client.mem_protect(0, v)
            assert client.restart_test() == -1
            yield from client.checkpoint(0)
            yield from client.checkpoint(1)
            return client.restart_test()

        results, _ = run_veloc_ranks(2, body, mode="single")
        assert all(v == 1 for v in results.values())

    def test_collective_mode_intersects(self):
        # rank 1 misses version 1: the collective answer must be 0.
        def body(client, h, rt):
            v = rt.view("x", shape=(4,))
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            if h.rank == 0:
                yield from client.checkpoint(1)
            best = yield from client.restart_test()
            return best

        results, _ = run_veloc_ranks(2, body, mode="collective")
        assert all(v == 0 for v in results.values())

    def test_collective_mode_requires_comm(self):
        cluster = veloc_cluster(1)
        world = World(cluster, 1)
        service = VeloCService(cluster)
        with pytest.raises(ConfigError):
            VeloCClient(
                world.context(0), cluster, service,
                VeloCConfig(mode="collective"), comm=None,
            )

    def test_rank_identity_hooks(self):
        def body(client, h, rt):
            client.set_rank(7)
            assert client.veloc_rank == 7
            client.set_comm(h)
            assert client.veloc_rank == h.rank
            return "ok"
            yield  # pragma: no cover

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == "ok"


class TestFlushBookkeeping:
    def test_a_pending_flush_is_listed_until_it_persists(self):
        def body(client, h, rt):
            client.mem_protect(0, rt.view("x", data=np.arange(8.0)))
            yield from client.checkpoint(0)
            pending = flush_pending(client)
            yield from wait_flushes(client)
            return pending, flush_pending(client)

        results, _ = run_veloc_ranks(1, body)
        assert results[0] == ([0], [])

    def test_completed_flushes_are_not_kept(self):
        """A long-lived client keeps nothing per persisted version."""
        def body(client, h, rt):
            v = rt.view("x", data=np.arange(8.0))
            client.mem_protect(0, v)
            for version in range(50):
                v.fill(float(version))
                yield from client.checkpoint(version)
                yield h.engine.timeout(1.0)  # the flush is long done
            return [ev.processed for ev in client._flushes.values()]

        results, cluster = run_veloc_ranks(1, body)
        assert results[0] == []
        assert cluster.pfs.exists(("veloc", "ckpt", 49, 0))
