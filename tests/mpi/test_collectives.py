"""Collective-operation correctness across sizes, roots, datatypes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import MIN, SUM
from tests.mpi.conftest import run_ranks


SIZES = [1, 2, 3, 4, 5, 7, 8]


class TestBcast:
    @pytest.mark.parametrize("size", SIZES)
    def test_bcast_from_zero(self, size):
        def body(h):
            value = {"payload": 123} if h.rank == 0 else None
            got = yield from h.bcast(value, root=0)
            return got

        results, _ = run_ranks(size, body)
        assert all(results[r] == {"payload": 123} for r in range(size))

    @pytest.mark.parametrize("root", [0, 1, 2, 3])
    def test_bcast_nonzero_root(self, root):
        def body(h):
            value = f"root-data-{h.rank}" if h.rank == root else None
            got = yield from h.bcast(value, root=root)
            return got

        results, _ = run_ranks(4, body)
        assert all(results[r] == f"root-data-{root}" for r in range(4))

    def test_bcast_numpy(self):
        def body(h):
            value = np.arange(50) if h.rank == 0 else None
            got = yield from h.bcast(value, root=0)
            return got.sum()

        results, _ = run_ranks(6, body)
        assert all(v == np.arange(50).sum() for v in results.values())


class TestReduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_reduce_sum_scalar(self, size):
        def body(h):
            got = yield from h.allreduce(h.rank + 1, op=SUM)
            return got

        results, _ = run_ranks(size, body)
        assert all(results[r] == sum(range(1, size + 1)) for r in range(size))

    @pytest.mark.parametrize("op,expected", [
        (SUM, 0 + 1 + 2 + 3),
        (MIN, 0),
    ])
    def test_reduce_ops(self, op, expected):
        def body(h):
            return (yield from h.allreduce(h.rank, op=op))

        results, _ = run_ranks(4, body)
        assert all(v == expected for v in results.values())

    def test_reduce_arrays_elementwise(self):
        def body(h):
            local = np.arange(8.0) - h.rank
            got = yield from h.allreduce(local, op=MIN)
            return got

        results, _ = run_ranks(5, body)
        assert all(np.array_equal(v, np.arange(8.0) - 4)
                   for v in results.values())


class TestAllreduce:
    @pytest.mark.parametrize("size", SIZES)
    def test_allreduce_sum(self, size):
        def body(h):
            got = yield from h.allreduce(np.array([h.rank, 1.0]), op=SUM)
            return got

        results, _ = run_ranks(size, body)
        expected = np.array([sum(range(size)), float(size)])
        for r in range(size):
            assert np.allclose(results[r], expected)

    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_allreduce_matches_numpy(self, values):
        size = len(values)

        def body(h):
            got = yield from h.allreduce(values[h.rank], op=SUM)
            return got

        results, _ = run_ranks(size, body)
        expected = float(np.sum(values))
        for r in range(size):
            assert results[r] == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestGatherScatter:
    @pytest.mark.parametrize("size", SIZES)
    def test_allgather(self, size):
        def body(h):
            got = yield from h.allgather(h.rank**2)
            return got

        results, _ = run_ranks(size, body)
        expected = [r**2 for r in range(size)]
        for r in range(size):
            assert results[r] == expected


class TestConcurrentCollectives:
    def test_back_to_back_collectives_do_not_cross_match(self):
        def body(h):
            a = yield from h.allreduce(1, op=SUM)
            b = yield from h.allreduce(h.rank + 3, op=MIN)
            c = yield from h.bcast("x" if h.rank == 1 else None, root=1)
            return (int(a), int(b), c)

        results, _ = run_ranks(6, body)
        assert all(v == (6, 3, "x") for v in results.values())

    def test_collectives_with_interleaved_p2p(self):
        def body(h):
            partner = (h.rank + 1) % h.size
            source = (h.rank - 1) % h.size
            token = yield from h.sendrecv(h.rank, dest=partner, source=source)
            total = yield from h.allreduce(token, op=SUM)
            return int(total)

        results, _ = run_ranks(4, body)
        assert all(v == 6 for v in results.values())

    @pytest.mark.parametrize("late_receiver", [False, True])
    def test_default_tag_p2p_beside_a_collective_in_flight(self, late_receiver):
        # untagged send/recv, as the benchmark probes do, on a communicator
        # that also carries a collective: rank 0's bcast message reaches
        # rank 1 ahead of the ping, and the receive must skip it
        def body(h):
            if h.rank == 0:
                yield from h.bcast("coll", root=0)
                yield from h.send("ping", dest=1)
                return None
            if late_receiver:
                yield from h.ctx.sleep(1.0)  # both messages queued first
            ping = yield from h.recv(source=0)
            coll = yield from h.bcast(None, root=0)
            return (ping, coll)

        results, _ = run_ranks(2, body)
        assert results[1] == ("ping", "coll")
