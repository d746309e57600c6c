"""Checkpointing over sub-communicators (one communicator and one
context per group)."""

import numpy as np
import pytest

from repro.core import KRConfig, every_nth, make_context
from repro.kokkos import KokkosRuntime
from repro.mpi import SUM, CommHandle, World
from repro.sim import Cluster, ClusterSpec, NetworkSpec, NodeSpec
from repro.veloc import VeloCService
from tests.veloc.conftest import wait_flushes


def make_stack(n_ranks):
    cluster = Cluster(
        ClusterSpec(
            n_nodes=n_ranks,
            node=NodeSpec(nic_bandwidth=1e9, nic_latency=1e-6,
                          memory_bandwidth=1e10),
            network=NetworkSpec(fabric_latency=0.0),
        )
    )
    world = World(cluster, n_ranks)
    service = VeloCService(cluster)
    return cluster, world, service


class TestSplitCheckpointing:
    def test_two_groups_checkpoint_independently(self):
        """Each group runs its own context; distinct checkpoint names keep
        the groups' version keys apart (sub-communicator ranks overlap, so
        the name carries the group identity)."""
        cluster, world, service = make_stack(4)
        groups = [world.create_comm([0, 2], name="evens"),
                  world.create_comm([1, 3], name="odds")]
        results = {}

        def main(rank):
            h = world.comm_world_handle(rank)
            color = h.rank % 2
            sub = CommHandle(groups[color], world.context(rank))
            config = KRConfig(backend="veloc", filter=every_nth(1, offset=-1))
            kr = make_context(sub, config, cluster, veloc_service=service,
                              ckpt_name=f"group{color}")
            rt = KokkosRuntime()
            v = rt.view("x", shape=(2,))

            def region():
                total = yield from sub.allreduce(float(h.rank), op=SUM)
                v.fill(total)

            yield from kr.checkpoint("loop", 0, region)
            v.fill(-1.0)
            kr._latest_cache = None
            latest = yield from kr.latest_version()
            yield from kr.checkpoint("loop", latest, lambda: None)
            results[rank] = (color, float(v[0]))

        for r in range(4):
            world.spawn(r, main(r))
        cluster.engine.run()
        world.raise_job_errors()
        # evens {0,2} sum 2.0; odds {1,3} sum 4.0 -- restored per group
        assert results[0] == (0, 2.0)
        assert results[2] == (0, 2.0)
        assert results[1] == (1, 4.0)
        assert results[3] == (1, 4.0)

    def test_same_name_would_collide_across_groups(self):
        """Documented sharp edge: sub-communicator ranks overlap, so two
        groups sharing one checkpoint name write to the same keys."""
        cluster, world, service = make_stack(2)
        singletons = [world.create_comm([r], name=f"solo{r}") for r in range(2)]
        seen = {}

        def main(rank):
            sub = CommHandle(singletons[rank], world.context(rank))
            config = KRConfig(backend="veloc", filter=every_nth(1, offset=-1))
            kr = make_context(sub, config, cluster, veloc_service=service,
                              ckpt_name="shared")
            rt = KokkosRuntime()
            v = rt.view("x", shape=(1,))
            yield from kr.checkpoint("loop", 0, lambda: v.fill(float(rank)))
            yield from wait_flushes(kr.backend.client)
            seen[rank] = kr.backend.client._key(0)

        for r in range(2):
            world.spawn(r, main(r))
        cluster.engine.run()
        # both singleton groups have sub-rank 0 -> identical keys
        assert seen[0] == seen[1]
