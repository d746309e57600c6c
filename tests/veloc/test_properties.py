"""Property-based tests: checkpoint/restore is the identity on data."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.kokkos import KokkosRuntime
from tests.veloc.conftest import run_veloc_ranks, wait_flushes

arrays = st.one_of(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    hnp.arrays(
        dtype=np.int64,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
        elements=st.integers(min_value=-(2**40), max_value=2**40),
    ),
)


@settings(max_examples=20, deadline=None)
@given(data=arrays)
def test_checkpoint_restore_roundtrip(data):
    def body(client, h, rt):
        v = rt.view("payload", data=data.copy())
        client.mem_protect(0, v)
        yield from client.checkpoint(0)
        v.data[...] = 0
        yield from client.recover(0)
        return v.data.copy()

    results, _ = run_veloc_ranks(1, body)
    np.testing.assert_array_equal(results[0], data)


@settings(max_examples=10, deadline=None)
@given(data=arrays, n_versions=st.integers(min_value=1, max_value=4))
def test_latest_version_restores_newest(data, n_versions):
    def body(client, h, rt):
        v = rt.view("payload", data=data.copy())
        client.mem_protect(0, v)
        for version in range(n_versions):
            v.data[...] = data + version if data.dtype.kind == "f" else data
            yield from client.checkpoint(version)
        best = client.restart_test()
        return best

    results, _ = run_veloc_ranks(1, body, mode="single")
    assert results[0] == n_versions - 1


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=16),
)
def test_pfs_roundtrip_after_scratch_loss(seed, shape):
    rng = np.random.default_rng(seed)
    data = rng.random(shape)

    def body(client, h, rt):
        v = rt.view("payload", data=data.copy())
        client.mem_protect(0, v)
        yield from client.checkpoint(0)
        yield from wait_flushes(client)
        client.ctx.node.wipe()
        v.data[...] = -1
        yield from client.recover(0)
        return v.data.copy()

    results, _ = run_veloc_ranks(1, body)
    np.testing.assert_array_equal(results[0], data)
