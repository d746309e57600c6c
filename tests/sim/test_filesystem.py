"""Unit tests for the parallel filesystem model."""

import numpy as np
import pytest

from repro.sim import Cluster, ClusterSpec, NetworkSpec, NodeSpec, PFSSpec
from repro.util.errors import ConfigError


def make_cluster(n_nodes=8, n_servers=2, server_bw=50.0, chunk=100.0):
    spec = ClusterSpec(
        n_nodes=n_nodes,
        node=NodeSpec(nic_bandwidth=1000.0, nic_latency=0.0, memory_bandwidth=1e6),
        network=NetworkSpec(fabric_latency=0.0),
        pfs=PFSSpec(
            n_servers=n_servers,
            server_bandwidth=server_bw,
            server_latency=0.0,
            chunk_bytes=chunk,
        ),
    )
    return Cluster(spec)


class TestDataPlane:
    def test_write_then_read_roundtrip(self):
        cl = make_cluster()
        eng = cl.engine
        payload = np.arange(10.0)
        got = []

        def writer():
            yield from cl.pfs.write("ckpt/0", payload, 100.0, cl.node(0))
            data = yield from cl.pfs.read("ckpt/0", cl.node(1))
            got.append(data)

        eng.process(writer())
        eng.run()
        assert np.array_equal(got[0], payload)

    def test_exists_delete_wipe(self):
        cl = make_cluster()
        eng = cl.engine

        def writer():
            yield from cl.pfs.write("a", 1, 10.0, cl.node(0))
            yield from cl.pfs.write("b", 2, 10.0, cl.node(0))

        eng.process(writer())
        eng.run()
        assert cl.pfs.exists("a") and cl.pfs.exists("b")
        cl.pfs.delete("a")
        assert not cl.pfs.exists("a")
        cl.pfs.wipe()
        assert not cl.pfs.exists("b")

    def test_read_missing_key_raises(self):
        cl = make_cluster()
        eng = cl.engine

        def reader():
            yield from cl.pfs.read("nope", cl.node(0))

        eng.process(reader())
        with pytest.raises(Exception):
            eng.run()

    def test_data_survives_scratch_wipe(self):
        # PFS contents persist across simulated job relaunches.
        cl = make_cluster()
        eng = cl.engine

        def writer():
            yield from cl.pfs.write("persist", "data", 10.0, cl.node(0))

        eng.process(writer())
        eng.run()
        cl.wipe_scratch()
        assert cl.pfs.peek("persist") == "data"


class TestContention:
    def test_write_time_single_writer(self):
        cl = make_cluster(n_servers=1, server_bw=50.0, chunk=1000.0)
        eng = cl.engine

        def writer():
            yield from cl.pfs.write("k", None, 100.0, cl.node(0))

        eng.process(writer())
        eng.run()
        assert eng.now == pytest.approx(2.0)  # 100 B / 50 B/s

    def test_servers_bottleneck_many_writers(self):
        # 8 writers x 100B through 2 servers at 50 B/s each:
        # aggregate 100 B/s -> total 800B takes ~8s even though NICs could
        # do it in 0.1s. This is the Lustre bottleneck of Figure 5.
        cl = make_cluster(n_nodes=8, n_servers=2, server_bw=50.0, chunk=100.0)
        eng = cl.engine

        def writer(i):
            yield from cl.pfs.write(f"k{i}", None, 100.0, cl.node(i))

        for i in range(8):
            eng.process(writer(i))
        eng.run()
        assert eng.now == pytest.approx(8.0, rel=0.01)

    def test_more_servers_scale_throughput(self):
        def total_time(n_servers):
            cl = make_cluster(n_nodes=8, n_servers=n_servers, server_bw=50.0)
            eng = cl.engine

            def writer(i):
                yield from cl.pfs.write(f"k{i}", None, 100.0, cl.node(i))

            for i in range(8):
                eng.process(writer(i))
            eng.run()
            return eng.now

        assert total_time(4) < total_time(2) < total_time(1)

    def test_writes_occupy_writer_nic(self):
        # While flushing to PFS the writer's TX pipe is busy, delaying its
        # own outgoing messages -- the checkpoint congestion effect.
        cl = make_cluster(n_nodes=4, n_servers=1, server_bw=50.0, chunk=1000.0)
        eng = cl.engine
        msg_done = []

        def flusher():
            yield from cl.pfs.write("big", None, 100.0, cl.node(0))  # 2s

        def sender():
            yield eng.timeout(0.1)
            yield from cl.network.transfer(cl.node(0), cl.node(1), 10.0)
            msg_done.append(eng.now)

        eng.process(flusher())
        eng.process(sender())
        eng.run()
        assert msg_done[0] >= 2.0

    def test_byte_counters(self):
        cl = make_cluster()
        eng = cl.engine

        def writer():
            yield from cl.pfs.write("k", "v", 250.0, cl.node(0))
            yield from cl.pfs.read("k", cl.node(1))

        eng.process(writer())
        eng.run()
        assert cl.pfs.bytes_written == 250.0
        assert cl.pfs.bytes_read == 250.0


class TestSpecValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            PFSSpec(n_servers=0)
        with pytest.raises(ConfigError):
            PFSSpec(server_bandwidth=0)
        with pytest.raises(ConfigError):
            PFSSpec(chunk_bytes=0)
