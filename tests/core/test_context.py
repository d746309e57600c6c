"""Context behaviour over each backend, without process failures."""

import numpy as np
import pytest

from repro.core import KRConfig, backends, every_nth, make_context
from repro.fenix import FenixSystem, IMRStore
from repro.kokkos import KokkosRuntime
from repro.mpi import World
from repro.util.errors import ConfigError
from repro.veloc import VeloCService
from tests.fenix.conftest import fenix_cluster
from tests.veloc.conftest import wait_flushes


def run_kr(n_ranks, body, backend="veloc", filter=None, scope="all", n_spares=0,
           **config_kwargs):
    """Run body(kr_ctx, handle, runtime) on each active rank under Fenix."""
    cluster = fenix_cluster(n_ranks)
    world = World(cluster, n_ranks)
    system = FenixSystem(world, n_spares=n_spares)
    service = VeloCService(cluster)
    imr = IMRStore(world)
    config = KRConfig(
        backend=backend,
        filter=filter if filter is not None else every_nth(1, offset=-1),
        recovery_scope=scope,
        **config_kwargs,
    )
    results = {}

    def main(role, h):
        kr = make_context(h, config, cluster, veloc_service=service, imr_store=imr)
        kr.set_role(role)
        res = yield from body(kr, h, KokkosRuntime())
        return res

    def wrapped(rank):
        ctx = world.context(rank)
        res = yield from system.run(ctx, main)
        results[rank] = res

    for r in range(n_ranks):
        world.spawn(r, wrapped(r))
    cluster.engine.run()
    world.raise_job_errors()
    return results, cluster


BACKENDS = list(backends.BACKENDS)


class TestCheckpointExecute:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_region_executes_and_checkpoints(self, backend):
        def body(kr, h, rt):
            v = rt.view("state", shape=(4,))
            executed = []

            def region():
                v.fill(7.0)
                executed.append(True)

            ran = yield from kr.checkpoint("loop", 0, region)
            assert ran is True
            assert executed == [True]
            return (kr.checkpoints_taken, sorted(kr.backend.local_versions()))

        results, _ = run_kr(2, body, backend=backend)
        for taken, versions in results.values():
            assert taken == 1
            assert versions == [0]

    def test_generator_region_drives_mpi(self):
        def body(kr, h, rt):
            v = rt.view("state", shape=(2,))

            def region():
                total = yield from h.allreduce(1)
                v.fill(float(total))

            yield from kr.checkpoint("loop", 0, region)
            return float(v[0])

        results, _ = run_kr(3, body)
        assert all(value == 3.0 for value in results.values())

    def test_filter_controls_when(self):
        def body(kr, h, rt):
            v = rt.view("state", shape=(2,))
            for i in range(10):
                yield from kr.checkpoint("loop", i, lambda: v.fill(i))
            # old scratch versions are GC'd; wait for the async PFS
            # flushes so every taken checkpoint is visible
            yield from wait_flushes(kr.backend.client)
            return sorted(kr.backend.local_versions())

        results, _ = run_kr(1, body, filter=every_nth(4))
        assert results[0] == [4, 8]

    def test_census_recorded(self):
        def body(kr, h, rt):
            main_v = rt.view("main", shape=(8,))
            swap = rt.view("main_swap", shape=(8,))
            rt.declare_alias("main_swap", "main")
            dup = main_v.subview(slice(None), label="dup")

            def region():
                return (main_v, swap, dup)

            yield from kr.checkpoint("loop", 0, region)
            c = kr.last_census
            return (
                [v.label for v in c.checkpointed],
                [v.label for v in c.aliases],
                [v.label for v in c.skipped],
            )

        results, _ = run_kr(1, body)
        ckpt, alias, skipped = results[0]
        # exactly one of the two same-buffer views is saved (closure
        # discovery order is not semantically meaningful), the other is
        # skipped; the declared alias is always excluded
        assert len(ckpt) == 1 and len(skipped) == 1
        assert set(ckpt) | set(skipped) == {"main", "dup"}
        assert alias == ["main_swap"]


class TestRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_latest_version_and_restore(self, backend):
        def body(kr, h, rt):
            v = rt.view("state", shape=(4,))
            # phase 1: run three iterations, checkpointing each
            for i in range(3):
                yield from kr.checkpoint("loop", i, lambda i=i: v.fill(float(i)))
            # simulate a fresh context needing recovery
            kr._latest_cache = None
            latest = yield from kr.latest_version()
            assert latest == 2
            v.fill(-1.0)
            ran = yield from kr.checkpoint("loop", latest, lambda: v.fill(99.0))
            return (ran, float(v[0]), kr.recoveries_done)

        results, _ = run_kr(2, body, backend=backend)
        for ran, value, recoveries in results.values():
            assert ran is False  # the region was recovered, not executed
            assert value == 2.0
            assert recoveries == 1

    def test_latest_version_empty(self):
        def body(kr, h, rt):
            latest = yield from kr.latest_version()
            return latest

        results, _ = run_kr(2, body)
        assert all(v == -1 for v in results.values())

    def test_metadata_cache_until_reset(self):
        def body(kr, h, rt):
            v = rt.view("state", shape=(2,))
            yield from kr.checkpoint("loop", 0, lambda: v.fill(1.0))
            first = yield from kr.latest_version()
            yield from kr.checkpoint("loop", 1, lambda: v.fill(2.0))
            cached = yield from kr.latest_version()  # still cached
            kr.reset(h)
            fresh = yield from kr.latest_version()
            return (first, cached, fresh)

        results, _ = run_kr(1, body)
        first, cached, fresh = results[0]
        assert first == 0
        assert cached == 0  # cache hides the new checkpoint
        assert fresh == 1  # reset cleared and re-fetched

    def test_partial_rollback_scope(self):
        # survivors keep their data; only RECOVERED ranks restore.
        from repro.fenix import Role

        def body(kr, h, rt):
            v = rt.view("state", shape=(2,))
            yield from kr.checkpoint("loop", 0, lambda: v.fill(10.0))
            # advance past the checkpoint
            v.fill(42.0)
            kr._latest_cache = None
            latest = yield from kr.latest_version()
            # everyone re-runs iteration `latest`; survivors skip restore
            yield from kr.checkpoint("loop", latest, lambda: None)
            return float(v[0])

        results, _ = run_kr(2, body, scope="recovered_only")
        # roles here are INITIAL (not RECOVERED), so data is kept
        assert all(v == 42.0 for v in results.values())

    def test_single_mode_reduction_finds_common_version(self):
        # rank 0 has versions {0,1}; rank 1 only {0}: agreement says 0.
        def body(kr, h, rt):
            v = rt.view("state", shape=(2,))
            yield from kr.checkpoint("loop", 0, lambda: v.fill(0.0))
            if h.rank == 0:
                yield from kr.checkpoint("loop", 1, lambda: v.fill(1.0))
            kr._latest_cache = None
            latest = yield from kr.latest_version()
            return latest

        results, _ = run_kr(2, body)
        assert all(v == 0 for v in results.values())


class TestMakeContext:
    def test_veloc_requires_service(self):
        cluster = fenix_cluster(1)
        world = World(cluster, 1)
        h = world.comm_world_handle(0)
        with pytest.raises(ConfigError):
            make_context(h, KRConfig(backend="veloc"), cluster)

    def test_imr_requires_store(self):
        cluster = fenix_cluster(1)
        world = World(cluster, 1)
        h = world.comm_world_handle(0)
        with pytest.raises(ConfigError):
            make_context(h, KRConfig(backend="fenix_imr"), cluster)

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigError):
            KRConfig(backend="nope")

    def test_bad_scope_rejected(self):
        with pytest.raises(ConfigError):
            KRConfig(recovery_scope="sometimes")
