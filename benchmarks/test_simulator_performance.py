"""Simulator performance: event throughput and protocol-path costs.

Unlike the figure benchmarks (which run once and emit tables), these
measure the *reproduction's own* hot paths with real repetition, so
regressions in the simulator show up in benchmark history.
"""

import math

import pytest

from repro.experiments.common import paper_env
from repro.mpi import SUM, World
from repro.sim import Cluster, ClusterSpec, Engine, NetworkSpec, NodeSpec
from repro.veloc import VeloCService


def small_cluster(n_nodes):
    return Cluster(
        ClusterSpec(
            n_nodes=n_nodes,
            node=NodeSpec(nic_bandwidth=1e9, nic_latency=1e-6,
                          memory_bandwidth=1e10),
            network=NetworkSpec(fabric_latency=0.0),
        )
    )


@pytest.mark.benchmark(group="simulator")
def test_engine_event_throughput(benchmark):
    """Raw engine speed: schedule and dispatch 50k timeout events."""

    def run():
        eng = Engine()

        def ticker():
            for _ in range(50_000):
                yield eng.timeout(0.001)

        eng.process(ticker())
        eng.run()
        return eng.now

    result = benchmark(run)
    assert result == pytest.approx(50.0)


@pytest.mark.benchmark(group="simulator")
def test_p2p_message_rate(benchmark):
    """Ping-pong throughput through the full matching + network stack."""

    def run():
        cluster = small_cluster(2)
        world = World(cluster, 2)
        n = 2_000

        def rank0():
            h = world.comm_world_handle(0)
            for i in range(n):
                yield from h.send(i, dest=1)
                yield from h.recv(source=1)

        def rank1():
            h = world.comm_world_handle(1)
            for _ in range(n):
                got = yield from h.recv(source=0)
                yield from h.send(got, dest=0)

        world.spawn(0, rank0())
        world.spawn(1, rank1())
        cluster.engine.run()
        return cluster.network.messages_sent

    assert benchmark(run) == 4_000


@pytest.mark.benchmark(group="simulator")
def test_allreduce_rate(benchmark):
    """Collective throughput at 16 ranks (binomial trees over p2p)."""

    def run():
        cluster = small_cluster(16)
        world = World(cluster, 16)
        n = 100

        def body(rank):
            h = world.comm_world_handle(rank)
            total = 0.0
            for _ in range(n):
                total = yield from h.allreduce(1.0, op=SUM)
            return total

        for r in range(16):
            world.spawn(r, body(r))
        cluster.engine.run()
        return True

    assert benchmark(run)


#: the paper's per-rank Heatdis checkpoint volume
FLUSH_BYTES = 0.5e9
FLUSH_NODES = 16
FLUSHES_PER_NODE = 3
HALO_ITERS = 50


@pytest.mark.benchmark(group="simulator")
def test_contended_flush_rate(benchmark):
    """The piece path under contention: each of 16 nodes flushes 0.5 GB
    (the paper's Heatdis checkpoint) three times through its VeloC server
    into 4 PFS I/O servers, while every rank runs a ring halo exchange
    whose messages queue on the same NICs.  Reports host microseconds per
    ``PipeHold`` piece (8 MiB flush pieces plus one piece per message)."""
    env = paper_env(FLUSH_NODES)
    spec = env.cluster_spec
    flush_pieces = (FLUSH_NODES * FLUSHES_PER_NODE
                    * math.ceil(FLUSH_BYTES / spec.pfs.chunk_bytes))
    messages = FLUSH_NODES * HALO_ITERS

    def run():
        cluster = Cluster(spec)
        world = World(cluster, FLUSH_NODES)
        service = VeloCService(cluster)

        def body(rank):
            h = world.comm_world_handle(rank)
            server = service.server_for(h.ctx.node)
            for i in range(FLUSHES_PER_NODE):
                server.submit(("ckpt", i, rank), None, FLUSH_BYTES)
            right, left = (rank + 1) % FLUSH_NODES, (rank - 1) % FLUSH_NODES
            for _ in range(HALO_ITERS):
                yield from h.ctx.compute(seconds=0.04)
                yield from h.sendrecv(None, dest=right, source=left,
                                      nbytes=1.0e6)

        for rank in range(FLUSH_NODES):
            world.spawn(rank, body(rank))
        cluster.engine.run()
        world.raise_job_errors()
        return cluster

    cluster = benchmark.pedantic(run, rounds=7, iterations=1,
                                 warmup_rounds=1)
    assert cluster.network.messages_sent == messages
    assert cluster.pfs.bytes_written == pytest.approx(
        FLUSH_NODES * FLUSHES_PER_NODE * FLUSH_BYTES)
    # the best round: this host's noise only ever adds
    per_piece = benchmark.stats.stats.min / (flush_pieces + messages)
    benchmark.extra_info["us_per_piece"] = per_piece * 1e6
    print(f"\n{flush_pieces} flush pieces + {messages} messages: "
          f"{per_piece * 1e6:.2f} us per piece")
