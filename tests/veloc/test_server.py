"""VeloC server behaviour: async draining, congestion, sharing."""

import numpy as np
import pytest

from repro.veloc import VeloCService
from tests.veloc.conftest import run_veloc_ranks, veloc_cluster


class TestServerLifecycle:
    def test_one_server_per_node(self):
        cluster = veloc_cluster(3)
        service = VeloCService(cluster)
        s0 = service.server_for(cluster.node(0))
        s0_again = service.server_for(cluster.node(0))
        s1 = service.server_for(cluster.node(1))
        assert s0 is s0_again
        assert s0 is not s1
        assert set(service.servers) == {0, 1}

    def test_jobs_drain_in_fifo_order(self):
        cluster = veloc_cluster(1)
        service = VeloCService(cluster)
        server = service.server_for(cluster.node(0))
        done_order = []

        def submitter():
            evs = []
            for i in range(3):
                ev = server.submit(("k", i), f"payload{i}", 1e6)
                ev.add_callback(lambda _e, i=i: done_order.append(i))
                evs.append(ev)
            yield cluster.engine.all_of(evs)

        cluster.engine.process(submitter())
        cluster.engine.run()
        assert done_order == [0, 1, 2]
        assert server.jobs_done == 3
        assert server.bytes_flushed == 3e6

    def test_backlog_counter(self):
        cluster = veloc_cluster(1)
        service = VeloCService(cluster)
        server = service.server_for(cluster.node(0))
        server.submit(("a",), None, 1e6)
        server.submit(("b",), None, 1e6)
        # server proc hasn't run yet at t=0 before engine.run
        assert server.backlog == 2
        cluster.engine.run()
        assert server.backlog == 0


class TestCongestion:
    def test_flush_delays_application_messages(self):
        """The Figure-5 effect: async flushes make app MPI slower."""

        def body_with_ckpt(client, h, rt):
            v = rt.view("x", shape=(8,), modeled_nbytes=2e8)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            # now exchange a large message while the flush is in flight
            partner = 1 - h.rank
            t0 = h.engine.now
            yield from h.sendrecv(None, dest=partner, source=partner, nbytes=1e7)
            return h.engine.now - t0

        def body_without(client, h, rt):
            partner = 1 - h.rank
            t0 = h.engine.now
            yield from h.sendrecv(None, dest=partner, source=partner, nbytes=1e7)
            return h.engine.now - t0

        slow, _ = run_veloc_ranks(2, body_with_ckpt, pfs_bw=1e8)
        fast, _ = run_veloc_ranks(2, body_without, pfs_bw=1e8)
        assert slow[0] > fast[0]

    def test_shared_node_server_serializes_ranks(self):
        # two ranks on one node share the server; their flushes queue.
        def body(client, h, rt):
            v = rt.view("x", shape=(4,), modeled_nbytes=1e8)
            # distinct content per rank: each flush moves its own bytes
            v.fill(float(h.rank) + 1.0)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            yield from client.wait_flushes()
            return h.engine.now

        results, _ = run_veloc_ranks(2, body, n_nodes=1, pfs_bw=1e8)
        times = sorted(results.values())
        # second flush completes roughly one flush-duration after the first
        assert times[1] >= times[0] + 0.5
