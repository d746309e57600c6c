"""Host cost of the applications' own numerics (group ``apps``).

Resilience overhead is quoted against the application's compute, and the
end-to-end benchmark (``benchmarks/e2e``) has no probe for it: its MiniMD
workload exists to load the Kokkos registry and KR discovery, so a dear
toy kernel there drowns the layers the workload is meant to watch.  Two
rows keep that from coming back unnoticed -- the Lennard-Jones kernel at
the size every figure-6 job runs it (24 owned atoms, both neighbours' 24
as ghosts, the 8-rank box), and one whole failure-free 8-rank figure-6
job -- both in ``BENCH_simulator.json`` and under CI's 30% gate.

The kernel row also holds the component-major kernel to at most 0.6x the
atom-major one it replaced (``tests/apps/reference_minimd.py``) on the
same inputs, best of five each: measured 0.44-0.53x.
"""

import timeit

import numpy as np
import pytest

from benchmarks.conftest import FIG6_PFS
from repro.apps import MiniMDConfig
from repro.apps.minimd import MiniMDState
from repro.experiments.fig6_minimd import N_STEPS, run_fig6_cell
from repro.kokkos import KokkosRuntime
from tests.apps.reference_minimd import reference_compute_forces

N_RANKS = 8
ATOMS = 24


def ring_state(rank=3):
    """One rank of the figure-6 ring, holding both neighbours' atoms."""
    cfg = MiniMDConfig(real_atoms_per_rank=ATOMS)
    ring = {r: MiniMDState(KokkosRuntime(), cfg, r, N_RANKS)
            for r in (rank - 1, rank, rank + 1)}
    state = ring[rank]
    state.ghosts = np.concatenate(
        [ring[rank - 1].x.data, ring[rank + 1].x.data])
    return state


def best_of_five(fn, calls=400):
    return min(timeit.repeat(fn, number=calls, repeat=5)) / calls


@pytest.mark.benchmark(group="apps")
def test_minimd_compute_forces(benchmark):
    state = ring_state()
    assert state.ghosts.shape == (2 * ATOMS, 3)
    # 100 calls a round: a 45 us call is too short to time one at a time
    pe = benchmark.pedantic(state.compute_forces, rounds=50, iterations=100,
                            warmup_rounds=1)
    assert np.isfinite(pe) and np.abs(state.f.data).max() > 0

    kernel = best_of_five(state.compute_forces)
    reference = best_of_five(lambda: reference_compute_forces(state))
    benchmark.extra_info["kernel_us"] = round(kernel * 1e6, 1)
    benchmark.extra_info["reference_us"] = round(reference * 1e6, 1)
    assert kernel <= 0.6 * reference, (kernel, reference)


@pytest.mark.benchmark(group="apps")
def test_minimd_fig6_job_8r(benchmark):
    """A whole failure-free figure-6 job: 8 ranks x 60 steps, the kernel
    plus everything the resilience stack does around it."""
    cell = benchmark.pedantic(
        run_fig6_cell, args=("fenix_kr_veloc", N_RANKS),
        kwargs=dict(with_failure=False, pfs_servers=FIG6_PFS),
        rounds=5, iterations=1, warmup_rounds=1)
    assert cell.clean.attempts == 1
    assert all(out["steps"] == N_STEPS
               for out in cell.clean.results.values())
