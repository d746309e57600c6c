"""Shared fixtures for VeloC tests."""

import numpy as np
import pytest

from repro.kokkos import KokkosRuntime
from repro.mpi import World
from repro.sim import Cluster, ClusterSpec, NetworkSpec, NodeSpec, PFSSpec
from repro.veloc import VeloCClient, VeloCConfig, VeloCService


def veloc_cluster(n_nodes=2, pfs_bw=1e8, n_servers=1):
    return Cluster(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(nic_bandwidth=1e9, nic_latency=1e-6, memory_bandwidth=1e10),
            network=NetworkSpec(fabric_latency=0.0),
            pfs=PFSSpec(
                n_servers=n_servers,
                server_bandwidth=pfs_bw,
                server_latency=0.0,
                chunk_bytes=1e6,
            ),
        )
    )


def run_veloc_ranks(n_ranks, body, mode="single", n_nodes=None, config=None,
                    **cluster_kwargs):
    """Run body(client, handle, runtime) on each rank; returns results."""
    n_nodes = n_nodes or n_ranks
    cluster = veloc_cluster(n_nodes=n_nodes, **cluster_kwargs)
    rpn = max(1, -(-n_ranks // n_nodes))
    world = World(cluster, n_ranks, ranks_per_node=rpn)
    service = VeloCService(cluster)
    config = config or VeloCConfig(mode=mode)
    results = {}

    def main(rank):
        ctx = world.context(rank)
        handle = world.comm_world_handle(rank)
        client = VeloCClient(ctx, cluster, service, config, comm=handle)
        rt = KokkosRuntime()
        res = yield from body(client, handle, rt)
        results[rank] = res

    for r in range(n_ranks):
        world.spawn(r, main(r))
    cluster.engine.run()
    world.raise_job_errors()
    return results, cluster
