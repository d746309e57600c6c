"""Backend-layer unit tests: region ids, the contract every row of
``BACKENDS`` keeps, StdFile specifics."""

import types

import numpy as np
import pytest

from repro.core import KRConfig, make_context
from repro.core.backends import BACKENDS, region_id_for
from repro.core.backends.stdfile import StdFileBackend
from repro.fenix import IMRStore
from repro.harness.strategies import StrategySpec
from repro.kokkos import KokkosRuntime
from repro.mpi import World
from repro.sim import Cluster, ClusterSpec
from repro.util.errors import ConfigError, ReproError
from repro.veloc import VeloCService


class TestRegionIds:
    def test_stable_across_calls(self):
        assert region_id_for("heatdis.grid") == region_id_for("heatdis.grid")

    def test_distinct_labels_distinct_ids(self):
        labels = [f"view{i}" for i in range(100)]
        ids = {region_id_for(l) for l in labels}
        assert len(ids) == 100

    def test_non_negative_31_bit(self):
        for label in ("a", "grid", "x" * 200):
            rid = region_id_for(label)
            assert 0 <= rid < 2**31


def run_backend(name, body, n_ranks=2):
    """``body(backend, handle)`` on every rank, the backend built the way
    a job builds it: from its ``BACKENDS`` row, by ``make_context``."""
    cluster = Cluster(ClusterSpec(n_nodes=n_ranks))
    world = World(cluster, n_ranks)
    service, imr = VeloCService(cluster), IMRStore(world)
    results = {}

    def proc(rank):
        h = world.comm_world_handle(rank)
        kr = make_context(h, KRConfig(backend=name), cluster,
                          veloc_service=service, imr_store=imr)
        results[rank] = yield from body(kr.backend, h)

    for r in range(n_ranks):
        world.spawn(r, proc(r))
    cluster.engine.run()
    world.raise_job_errors()
    return results, world


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestBackendContract:
    """What ``Context`` relies on, whichever row it was handed."""

    def test_checkpoint_then_restore_roundtrips(self, name):
        def body(backend, h):
            v = KokkosRuntime().view("x", data=np.arange(4.0) + h.rank)
            backend.register_views([v])
            yield from backend.checkpoint(3)
            held = set(backend.local_versions())
            v.fill(-1.0)
            yield from backend.restore(3, [v])
            return held, v.data.copy()

        results, _ = run_backend(name, body)
        for rank, (held, data) in results.items():
            assert 3 in held
            assert np.array_equal(data, np.arange(4.0) + rank)

    def test_reset_adopts_the_communicator(self, name):
        def body(backend, h):
            repaired = h.ctx.world.comm_world_handle(h.rank)
            backend.reset(repaired)
            assert backend.comm is repaired and backend.ctx is repaired.ctx
            # and still answers, collectively, over the new one
            latest = yield from backend.latest_version()
            return latest

        results, _ = run_backend(name, body)
        assert set(results.values()) == {-1}

    def test_latest_version_is_the_newest_every_rank_holds(self, name):
        def body(backend, h):
            v = KokkosRuntime().view("x", data=np.ones(2))
            backend.register_views([v])
            yield from backend.checkpoint(0)
            if h.rank == 0:  # finished locally, not globally
                yield from backend.checkpoint(1)
            yield from h.allreduce(0)
            latest = yield from backend.latest_version()
            return sorted(backend.local_versions()), latest

        results, _ = run_backend(name, body)
        assert results == {0: ([0, 1], 0), 1: ([0], 0)}


class TestUnknownBackend:
    """One table, so one error: typed, and listing the rows that exist."""

    @pytest.mark.parametrize("ask", [
        lambda: KRConfig(backend="restore"),
        lambda: StrategySpec("x", fenix=True, kr=True, backend="restore"),
        lambda: make_context(None, types.SimpleNamespace(backend="restore"),
                             None),
    ], ids=["KRConfig", "StrategySpec", "make_context"])
    def test_is_a_config_error_naming_the_known_ones(self, ask):
        with pytest.raises(ConfigError) as err:
            ask()
        assert "'restore'" in str(err.value)
        for known in BACKENDS:
            assert known in str(err.value)


class TestStdFileBackend:
    def make(self):
        cluster = Cluster(ClusterSpec(n_nodes=1))
        world = World(cluster, 1)
        h = world.comm_world_handle(0)
        return cluster, world, StdFileBackend(cluster, h, prefix="t")

    def test_checkpoint_restore_roundtrip(self):
        cluster, world, backend = self.make()
        rt = KokkosRuntime()
        v = rt.view("x", data=np.arange(4.0))

        def proc():
            backend.register_views([v])
            yield from backend.checkpoint(0)
            v.fill(0.0)
            yield from backend.restore(0, [v])

        cluster.engine.process(proc())
        cluster.engine.run()
        assert np.array_equal(v.data, np.arange(4.0))

    def test_restore_missing_version_raises(self):
        cluster, world, backend = self.make()
        rt = KokkosRuntime()
        v = rt.view("x", shape=(2,))
        caught = []

        def proc():
            try:
                yield from backend.restore(9, [v])
            except ReproError:
                caught.append(True)

        cluster.engine.process(proc())
        cluster.engine.run()
        assert caught == [True]

    def test_synchronous_write_blocks_caller(self):
        # unlike VeloC, StdFile pays the whole PFS write in the call
        cluster, world, backend = self.make()
        rt = KokkosRuntime()
        v = rt.view("x", shape=(2,), modeled_nbytes=1e9)

        def proc():
            backend.register_views([v])
            yield from backend.checkpoint(0)

        cluster.engine.process(proc())
        cluster.engine.run()
        # 1 GB through the default 4x2GiB PFS: >= 0.1s of wall
        assert cluster.engine.now > 0.1

    def test_local_versions_scoped_by_rank_and_prefix(self):
        cluster, world, backend = self.make()
        rt = KokkosRuntime()
        v = rt.view("x", shape=(2,))

        def proc():
            backend.register_views([v])
            yield from backend.checkpoint(0)
            yield from backend.checkpoint(3)

        cluster.engine.process(proc())
        cluster.engine.run()
        assert backend.local_versions() == {0, 3}
