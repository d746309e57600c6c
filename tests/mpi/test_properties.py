"""Property-based tests: collectives agree with numpy on arbitrary inputs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import MIN, SUM
from tests.mpi.conftest import run_ranks

finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=8))
def test_gather_preserves_order_and_values(values):
    size = len(values)

    def body(h):
        return (yield from h.allgather(values[h.rank]))

    results, _ = run_ranks(size, body)
    assert all(results[r] == values for r in range(size))


@settings(max_examples=20, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=8), root_seed=st.integers(0, 100))
def test_bcast_delivers_identical_value(values, root_seed):
    size = len(values)
    root = root_seed % size

    def body(h):
        payload = values if h.rank == root else None
        return (yield from h.bcast(payload, root=root))

    results, _ = run_ranks(size, body)
    for r in range(size):
        assert results[r] == values


@settings(max_examples=15, deadline=None)
@given(
    data=st.lists(
        st.lists(finite, min_size=3, max_size=3), min_size=2, max_size=6
    ),
)
def test_reduce_ops_match_numpy(data):
    size = len(data)
    arrays = [np.array(row) for row in data]

    def body(h):
        s = yield from h.allreduce(arrays[h.rank], op=SUM)
        mn = yield from h.allreduce(arrays[h.rank], op=MIN)
        return (s, mn)

    results, _ = run_ranks(size, body)
    stacked = np.stack(arrays)
    for r in range(size):
        s, mn = results[r]
        np.testing.assert_allclose(s, stacked.sum(axis=0), rtol=1e-9, atol=1e-6)
        np.testing.assert_array_equal(mn, stacked.min(axis=0))


@settings(max_examples=10, deadline=None)
@given(
    payload=st.one_of(
        st.integers(),
        st.text(max_size=20),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=4),
        st.lists(finite, max_size=5),
    )
)
def test_send_recv_arbitrary_payload(payload):
    def body(h):
        if h.rank == 0:
            yield from h.send(payload, dest=1)
            return None
        return (yield from h.recv(source=0))

    results, _ = run_ranks(2, body)
    assert results[1] == payload
