"""Host-side checkpoint data-path throughput: full copy vs incremental.

Unlike the figure benchmarks these measure the *reproduction's own*
host cost of the VeloC checkpoint path -- the numpy copies and chunk
bookkeeping that dominate campaign wall-clock -- in the steady state the
incremental path optimizes: repeated checkpoints where tracked writes
touch 25% of the region between versions.

Arms (see docs/PERFORMANCE.md for the trade-off):

- ``full``: ``incremental=False``, a deep copy of every protected byte
  per version;
- ``incremental``: copy-on-write chunk snapshots -- each dirty chunk is
  read out as ``bytes`` and compared with its previous copy; the pure
  host-side win, asserted at >= 30% below.

PFS flushing is disabled so the measurement is the host data path alone,
not simulated-flush event processing.
"""

import gc
import time

import pytest

from repro.kokkos import KokkosRuntime
from repro.mpi import World
from repro.sim import Cluster, ClusterSpec, NetworkSpec, NodeSpec, PFSSpec
from repro.veloc import VeloCClient, VeloCConfig, VeloCService

#: steady-state checkpoints measured per run (after one full warm-up)
N_CHECKPOINTS = 10
#: fraction of rows rewritten (via tracked writes) between versions
DIRTY_FRACTION = 0.25
#: real array sizes.  Below a few MiB the path is bookkeeping-bound and
#: per-chunk overheads erase the copy savings; the incremental win is a
#: throughput property of checkpoint-sized regions.
SIZES_MIB = [4, 8, 16]

ARM_CONFIGS = {
    "full": dict(incremental=False, flush_to_pfs=False),
    "incremental": dict(incremental=True, flush_to_pfs=False),
}
#: benchmark rounds per arm: one round of ~10-100 ms is noise, not data
ROUNDS = 5


def _cluster():
    return Cluster(
        ClusterSpec(
            n_nodes=1,
            node=NodeSpec(nic_bandwidth=1e9, nic_latency=1e-6,
                          memory_bandwidth=1e10),
            network=NetworkSpec(fabric_latency=0.0),
            pfs=PFSSpec(n_servers=1, server_bandwidth=1e8,
                        server_latency=0.0, chunk_bytes=1e6),
        )
    )


def collect_garbage():
    """Before each round: the previous round's job graph (cyclic, holding
    every snapshot) would otherwise be freed somewhere inside this one.
    (``pedantic`` wants a setup that returns None, hence the wrapper.)"""
    gc.collect()


def steady_state_host_seconds(mib: int, arm: str):
    """Host seconds for N steady-state checkpoints at 25% dirty."""
    cluster = _cluster()
    world = World(cluster, 1)
    service = VeloCService(cluster)
    config = VeloCConfig(mode="single", **ARM_CONFIGS[arm])
    client = VeloCClient(world.context(0), cluster, service, config,
                         comm=world.comm_world_handle(0))
    rt = KokkosRuntime()
    rows = mib * 1024 * 1024 // (8 * 256)
    v = rt.view("state", shape=(rows, 256))
    client.mem_protect(0, v)
    measured = {}

    def body():
        yield from client.checkpoint(0)  # warm-up: always a full copy
        dirty_rows = max(1, int(rows * DIRTY_FRACTION))
        t0 = time.perf_counter()
        for version in range(1, N_CHECKPOINTS + 1):
            v[0:dirty_rows] = float(version)  # tracked writes
            yield from client.checkpoint(version)
        measured["host"] = time.perf_counter() - t0
        measured["stats"] = dict(client.stats)

    world.spawn(0, body())
    cluster.engine.run()
    world.raise_job_errors()
    return measured["host"], measured["stats"]


@pytest.mark.benchmark(group="checkpoint-path")
@pytest.mark.parametrize("mib", SIZES_MIB)
@pytest.mark.parametrize("arm", list(ARM_CONFIGS))
def test_checkpoint_path_host(benchmark, arm, mib):
    """Record per-arm host throughput in the benchmark history."""

    def run():
        host, stats = steady_state_host_seconds(mib, arm)
        return stats

    # one unrecorded round first: the process's first 16 MiB allocations
    # page-fault their way in and read 3-5x the steady rounds
    stats = benchmark.pedantic(run, setup=collect_garbage, rounds=ROUNDS,
                               iterations=1, warmup_rounds=1)
    assert stats["checkpoints"] == N_CHECKPOINTS + 1
    # steady-state dirty fraction: strip the full warm-up version out
    per_version = stats["checkpoint_bytes"] / (N_CHECKPOINTS + 1)
    steady_dirty = (stats["dirty_bytes"] - per_version) / (
        per_version * N_CHECKPOINTS)
    expected = 1.0 if arm == "full" else DIRTY_FRACTION
    assert steady_dirty == pytest.approx(expected, rel=0.1)


@pytest.mark.parametrize("mib", SIZES_MIB)
def test_checkpoint_path_reduction(mib):
    """The acceptance bar: >= 30% host-time cut at a 25% dirty fraction.

    Measured over the better of three repetitions per arm: single-shot
    wall timings of ~10 ms regions see scheduler noise well above the
    margin this asserts.
    """
    full = min(steady_state_host_seconds(mib, "full")[0] for _ in range(3))
    incr = min(
        steady_state_host_seconds(mib, "incremental")[0] for _ in range(3)
    )
    reduction = 1.0 - incr / full
    print(f"\n{mib} MiB: full {full * 1e3:.1f} ms -> incremental "
          f"{incr * 1e3:.1f} ms ({reduction:.0%} reduction)")
    assert reduction >= 0.30, (
        f"incremental path saved only {reduction:.0%} host time at "
        f"{mib} MiB (bar: 30%)")

