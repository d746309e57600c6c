"""Differential timing test: the node server vs its process-based oracle.

Random flush submissions -- on two nodes, at colliding instants, some
before a server's first step, some moving fewer bytes than they store --
compete with NIC messages and with rank processes writing to the PFS,
on a PFS-only cluster and on one with a burst buffer.  The callback-chain
:class:`~repro.veloc.server.VeloCServer` and the generator-process
:class:`~tests.veloc.reference_server.ReferenceServer` must leave the
same trace records (times, backlogs, sizes), the same spans and metrics,
the same completion instants and the same byte and busy-time counters on
every pipe.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import (
    Cluster, ClusterSpec, NetworkSpec, NodeSpec, PFSSpec, Trace,
)
from repro.telemetry.collector import Telemetry
from repro.veloc.server import VeloCServer
from tests.veloc.reference_server import ReferenceServer

TIMES = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 3.0])
SIZES = st.sampled_from([0.0, 40.0, 100.0, 250.0, 1000.0])
NODES = st.integers(0, 2)
#: (time, node, nbytes, stores more than it moves)
SUBMITS = st.lists(st.tuples(TIMES, st.integers(0, 1), SIZES, st.booleans()),
                   min_size=1, max_size=8)
#: (time, kind, node, other node, nbytes)
TRAFFIC = st.lists(
    st.tuples(TIMES, st.sampled_from(["message", "pfs_write"]), NODES, NODES,
              SIZES),
    max_size=8)


def platform(burst_buffer):
    return Cluster(
        ClusterSpec(
            n_nodes=3,
            node=NodeSpec(nic_bandwidth=1000.0, nic_latency=0.001,
                          memory_bandwidth=1e6),
            network=NetworkSpec(fabric_latency=0.0),
            pfs=PFSSpec(n_servers=2, server_bandwidth=200.0,
                        server_latency=0.01, chunk_bytes=100.0),
            burst_buffer=PFSSpec(n_servers=2, server_bandwidth=500.0,
                                 server_latency=0.0, chunk_bytes=100.0)
            if burst_buffer else None,
        ),
        trace=Trace(enabled=True),
        telemetry=Telemetry(),
    )


def execute(server_cls, burst_buffer, submits, traffic):
    cluster = platform(burst_buffer)
    eng = cluster.engine
    servers, log = {}, []

    def submit(op_id):
        _, node, nbytes, partial = submits[op_id]
        server = servers.get(node)
        if server is None:  # built on first use, as VeloCService does
            server = servers[node] = server_cls(
                cluster, cluster.node(node), use_burst_buffer=burst_buffer)
        done = server.submit(("v", op_id), op_id, nbytes,
                             stored_nbytes=2 * nbytes + 1 if partial else None)
        done.add_callback(lambda _: persisted(op_id, node))

    def persisted(op_id, node):
        # what a rank waiting in wait_flushes does next: talk, on the NIC
        # the server's next job wants too
        log.append((eng.now, "persisted", op_id))
        cluster.network.transfer_cb(
            cluster.node(node), cluster.node(2), 10.0,
            lambda _: log.append((eng.now, "answered", op_id)))

    def writer(op_id, node, nbytes):
        yield from cluster.pfs.write(("w", op_id), None, nbytes,
                                     cluster.node(node))
        log.append((eng.now, "written", op_id))

    def issue(op_id):
        _, kind, src, dst, nbytes = traffic[op_id]
        if kind == "message":
            cluster.network.transfer_cb(
                cluster.node(src), cluster.node(dst), nbytes,
                lambda _: log.append((eng.now, "delivered", op_id)))
        else:
            eng.process(writer(op_id, src, nbytes))

    for op_id, (when, *_) in enumerate(submits):
        eng.call_later(when, submit, op_id)
    for op_id, (when, *_) in enumerate(traffic):
        eng.call_later(when, issue, op_id)
    eng.run(check_deadlock=False)

    tiers = [cluster.pfs] + ([cluster.burst_buffer] if burst_buffer else [])
    pipes = [pipe for node in cluster.nodes for pipe in (node.tx, node.rx)]
    pipes += [server for tier in tiers for server in tier.servers]
    tracer = cluster.telemetry.tracer
    return {
        "now": eng.now,
        "log": log,
        "records": [(r.time, r.source, r.kind, r.fields)
                    for r in cluster.trace],
        "spans": [(s.sid, s.source, s.name, s.start, s.end, s.parent,
                   s.fields) for s in tracer.spans + tracer.instants],
        "metrics": cluster.telemetry.metrics.snapshot(),
        "tiers": [(t.bytes_written, t.bytes_read, t._sizes) for t in tiers],
        "pipes": [(p.name, p.busy_time, p.bytes_moved, p.in_use)
                  for p in pipes],
        "active": [node.active_flushes for node in cluster.nodes],
    }


@settings(max_examples=200, deadline=None)
@given(st.booleans(), SUBMITS, TRAFFIC)
def test_the_server_keeps_the_process_servers_instants(
        burst_buffer, submits, traffic):
    ours = execute(VeloCServer, burst_buffer, submits, traffic)
    assert ours == execute(ReferenceServer, burst_buffer, submits, traffic)
    # a flush, its completion and (with a burst buffer) its drain each
    # left a record: the comparison was not vacuous
    kinds = [kind for _, _, kind, _ in ours["records"]]
    assert kinds.count("flush_done") == len(submits)
    assert kinds.count("drain_done") == (len(submits) if burst_buffer else 0)
