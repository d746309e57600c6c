"""Runner extras: platform counters, label binding, mid-checkpoint kills,
CLI smoke."""

import numpy as np

from repro.apps import HeatdisConfig
from repro.harness import run_heatdis_job
from repro.harness.report import report_to_dict, reports_to_json
from repro.sim import TimedFailure
from repro.util.errors import ConfigError
from tests.harness.conftest import small_env


CFG = HeatdisConfig(local_rows=8, cols=16, modeled_bytes_per_rank=64e6,
                    n_iters=30)


class TestPlatformCounters:
    def test_counters_present(self):
        rep = run_heatdis_job(small_env(), "fenix_kr_veloc", 4, CFG, 6)
        assert rep.platform["network_messages"] > 0
        assert rep.platform["network_bytes"] > 0
        assert rep.platform["pfs_bytes_written"] > 0

    def test_no_resilience_writes_nothing(self):
        rep = run_heatdis_job(small_env(), "none", 4, CFG, 6)
        assert rep.platform["pfs_bytes_written"] == 0.0

    def test_imr_avoids_pfs(self):
        rep = run_heatdis_job(small_env(), "fenix_kr_imr", 4, CFG, 6)
        assert rep.platform["pfs_bytes_written"] == 0.0
        # but buddy traffic flows over the network
        base = run_heatdis_job(small_env(), "none", 4, CFG, 6)
        assert rep.platform["network_bytes"] > base.platform["network_bytes"]


class TestJsonExport:
    def test_report_to_dict_roundtrip(self):
        rep = run_heatdis_job(small_env(), "veloc", 2, CFG, 6)
        d = report_to_dict(rep)
        assert d["strategy"] == "veloc"
        assert d["wall_time"] == rep.wall_time
        assert "results" not in d  # payload omitted

    def test_json_serializes(self):
        import json

        rep = run_heatdis_job(small_env(), "veloc", 2, CFG, 6)
        parsed = json.loads(reports_to_json([rep]))
        assert parsed[0]["n_ranks"] == 2


class TestLabelBinding:
    def test_second_region_label_rejected(self):
        from repro.core import KRConfig, always, make_context
        from repro.kokkos import KokkosRuntime
        from repro.mpi import World
        from repro.sim import Cluster, ClusterSpec
        from repro.veloc import VeloCService

        cluster = Cluster(ClusterSpec(n_nodes=1))
        world = World(cluster, 1)
        service = VeloCService(cluster)
        caught = []

        def main(rank):
            h = world.comm_world_handle(rank)
            kr = make_context(h, KRConfig(filter=always), cluster,
                              veloc_service=service)
            rt = KokkosRuntime()
            v = rt.view("x", shape=(2,))
            yield from kr.checkpoint("loopA", 0, lambda: v.fill(1.0))
            try:
                yield from kr.checkpoint("loopB", 1, lambda: v.fill(2.0))
            except ConfigError:
                caught.append(True)

        world.spawn(0, main(0))
        cluster.engine.run()
        assert caught == [True]


class TestMidCheckpointKill:
    def test_kill_during_checkpoint_recovers(self):
        """A rank killed *inside* the checkpoint function (not at an
        iteration boundary) must still be recovered cleanly."""
        clean = run_heatdis_job(small_env(), "fenix_kr_veloc", 4, CFG, 6)
        # find a time mid-run; the kill lands wherever rank 2 happens to be
        mid = clean.wall_time * 0.6
        plan = TimedFailure([(2, mid)])
        failed = run_heatdis_job(
            small_env(), "fenix_kr_veloc", 4, CFG, 6, plan=plan
        )
        assert failed.attempts == 1
        for r in range(4):
            np.testing.assert_array_equal(
                clean.results[r]["grid"], failed.results[r]["grid"]
            )


class TestRelaunchAfterKilledLockWaiter:
    def test_exponential_seed_6_relaunches_to_completion(self):
        """The MTBF campaign's 8-rank cell under failure-plan seed 6 kills
        a process queued for a PFS server; the request it left behind used
        to be granted the server after its death, and every rank of the
        last relaunch deadlocked on ``pfs.ost0:lock:request``."""
        from repro.experiments import fig5_heatdis
        from repro.experiments.common import paper_env
        from repro.sim import ExponentialFailures

        cfg = HeatdisConfig(
            local_rows=8, cols=16, modeled_bytes_per_rank=256e6,
            n_iters=120, work_multiplier=fig5_heatdis.WORK_MULTIPLIER)
        ideal = run_heatdis_job(
            paper_env(9, pfs_servers=1), "none", 8, cfg, 9)
        plan = ExponentialFailures(
            ideal.wall_time * 8 / 3, seed=6, max_failures=3)
        rep = run_heatdis_job(
            paper_env(12, n_spares=4, pfs_servers=1), "kr_veloc", 8, cfg, 9,
            plan=plan)
        assert rep.failures == 3
        assert rep.attempts == rep.failures + 1


class TestCLI:
    def test_cli_fig7(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "checkpointed" in out

    def test_cli_complexity(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["complexity"]) == 0
        assert "MPI call sites" in capsys.readouterr().out
