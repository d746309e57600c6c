"""Trace validation: clean traces pass, corrupted ones fail.

The checks are ``repro.monitor``'s (``harness.validate``, their five-rule
precursor, is gone); the traces are this file's own -- a full-stack
failing run built without the harness, and hand-written corruptions.
"""

import numpy as np
import pytest

from repro.core import KRConfig, every_nth, make_context
from repro.fenix import FenixSystem, Role
from repro.kokkos import KokkosRuntime
from repro.monitor import MonitorSuite
from repro.mpi import SUM, World
from repro.sim import (
    Cluster,
    ClusterSpec,
    IterationFailure,
    NetworkSpec,
    NodeSpec,
    Trace,
)
from repro.veloc import VeloCService


def validate_trace(trace):
    """``monitor/rule`` of every invariant violation on the trace."""
    suite = MonitorSuite().replay(trace)
    suite.finish()
    return [f"{v.monitor}/{v.rule}" for v in suite.violations]


def traced_failure_run():
    """A full-stack failing run with tracing enabled."""
    cluster = Cluster(
        ClusterSpec(
            n_nodes=4,
            node=NodeSpec(nic_bandwidth=1e9, nic_latency=1e-6,
                          memory_bandwidth=1e10),
            network=NetworkSpec(fabric_latency=0.0),
        ),
        trace=Trace(enabled=True),
    )
    world = World(cluster, 4)
    system = FenixSystem(world, n_spares=1)
    service = VeloCService(cluster)
    plan = IterationFailure([(1, 7)])
    config = KRConfig(backend="veloc", filter=every_nth(3))

    def main(role, h):
        ctx = h.ctx
        state = ctx.user.setdefault("s", {})
        if "view" not in state or role is Role.RECOVERED:
            rt = KokkosRuntime()
            state["view"] = rt.view("x", shape=(4,))
            state["kr"] = None
        v = state["view"]
        if state["kr"] is None:
            kr = make_context(h, config, cluster, veloc_service=service)
            state["kr"] = kr
            kr.set_role(role)
        else:
            kr = state["kr"]
            kr.reset(h, role)
        latest = yield from kr.latest_version()
        if latest < 0 and role is not Role.INITIAL:
            v.fill(0.0)
        for i in range(max(0, latest), 10):
            plan.check(ctx.rank, i)

            def region(i=i):
                total = yield from h.allreduce(1, op=SUM)
                v.fill(float(i) + total)

            yield from kr.checkpoint("x", i, region)
        return "done"

    def wrapped(rank):
        yield from system.run(world.context(rank), main)

    for r in range(4):
        world.spawn(r, wrapped(r), failure_plan=plan)
    cluster.engine.run()
    world.raise_job_errors()
    return cluster.trace


class TestCleanTraceValidates:
    def test_failure_run_trace_has_no_violations(self):
        trace = traced_failure_run()
        assert trace.count("rank_dead") == 1
        assert trace.count("repair") == 1
        assert trace.count("checkpoint") > 0
        assert trace.count("recover") > 0
        assert validate_trace(trace) == []


class TestCorruptedTracesFlagged:
    def test_ghost_recover_detected(self):
        tr = Trace()
        tr.emit(0.0, "veloc.rank0", "checkpoint", version=0, nbytes=1.0)
        tr.emit(1.0, "veloc.rank0", "recover", version=5, tier="scratch")
        assert validate_trace(tr) == ["VersionMonitor/ghost-restore"]

    def test_generation_skip_detected(self):
        tr = Trace()
        tr.emit(0.0, "world", "rank_dead", rank=1)
        tr.emit(0.1, "fenix", "repair", generation=2, size=3, recovered=[])
        assert validate_trace(tr) == ["RepairGateMonitor/generation-sequence"]

    def test_repair_without_death_detected(self):
        tr = Trace()
        tr.emit(0.1, "fenix", "repair", generation=1, size=3, recovered=[])
        assert validate_trace(tr) == [
            "RepairGateMonitor/repair-without-failure"]

    def test_valid_sequence_passes(self):
        tr = Trace()
        tr.emit(0.0, "veloc.rank0", "checkpoint", version=0, nbytes=1.0)
        tr.emit(0.5, "world", "rank_dead", rank=1)
        tr.emit(0.6, "fenix", "repair", generation=1, size=3, recovered=[3])
        tr.emit(0.7, "veloc.rank0", "recover", version=0, tier="scratch")
        assert validate_trace(tr) == []
