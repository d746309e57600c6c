"""Point-to-point messaging tests."""

import numpy as np
import pytest

from repro.mpi import CommHandle, World
from tests.mpi.conftest import run_ranks, small_cluster


class TestBasicSendRecv:
    def test_python_object_roundtrip(self):
        def body(h):
            if h.rank == 0:
                yield from h.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                return None
            if h.rank == 1:
                data = yield from h.recv(source=0, tag=11)
                return data
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == {"a": 7, "b": 3.14}

    def test_numpy_array_roundtrip(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(np.arange(100, dtype=np.float64), dest=1)
            elif h.rank == 1:
                data = yield from h.recv(source=0)
                return data.sum()
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == pytest.approx(np.arange(100).sum())

    def test_send_copies_payload(self):
        # MPI value semantics: mutating the buffer after send must not
        # affect the delivered message.
        def body(h):
            if h.rank == 0:
                buf = np.zeros(4)
                # an eager send completes before the message is delivered
                yield from h.send(buf, dest=1)
                buf[:] = 99.0
            elif h.rank == 1:
                data = yield from h.recv(source=0)
                return float(data.sum())
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == 0.0

    def test_tag_matching(self):
        def body(h):
            if h.rank == 0:
                yield from h.send("tagA", dest=1, tag=5)
                yield from h.send("tagB", dest=1, tag=6)
            elif h.rank == 1:
                # receive in reverse tag order: matching must be by tag
                b = yield from h.recv(source=0, tag=6)
                a = yield from h.recv(source=0, tag=5)
                return (a, b)
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == ("tagA", "tagB")

    def test_message_ordering_same_tag(self):
        def body(h):
            if h.rank == 0:
                for i in range(5):
                    yield from h.send(i, dest=1, tag=0)
            elif h.rank == 1:
                got = []
                for _ in range(5):
                    got.append((yield from h.recv(source=0, tag=0)))
                return got
            return None

        results, _ = run_ranks(2, body)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_messages_do_not_cross_communicators(self):
        # two communicators over the same ranks: same source, same tag,
        # and each receive gets its own communicator's message
        world = World(small_cluster(2), 2)
        first = world.create_comm([0, 1], name="first")
        second = world.create_comm([0, 1], name="second")
        got = {}

        def main(rank):
            a = CommHandle(first, world.context(rank))
            b = CommHandle(second, world.context(rank))
            if rank == 0:
                yield from a.send("on-first", dest=1, tag=7)
                yield from b.send("on-second", dest=1, tag=7)
            else:
                got["second"] = yield from b.recv(source=0, tag=7)
                got["first"] = yield from a.recv(source=0, tag=7)

        for r in range(2):
            world.spawn(r, main(r))
        world.engine.run()
        world.raise_job_errors()
        assert got == {"first": "on-first", "second": "on-second"}


class TestNonblocking:
    def test_sendrecv_exchange(self):
        def body(h):
            partner = 1 - h.rank
            got = yield from h.sendrecv(
                f"hello-from-{h.rank}", dest=partner, source=partner
            )
            return got

        results, _ = run_ranks(2, body)
        assert results[0] == "hello-from-1"
        assert results[1] == "hello-from-0"

    def test_ring_sendrecv(self):
        def body(h):
            right = (h.rank + 1) % h.size
            left = (h.rank - 1) % h.size
            got = yield from h.sendrecv(h.rank, dest=right, source=left)
            return got

        results, _ = run_ranks(5, body)
        for r in range(5):
            assert results[r] == (r - 1) % 5


class TestTimingAndSizes:
    def test_mpi_time_charged(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(np.zeros(1000), dest=1)
            else:
                yield from h.recv(source=0)
            return h.ctx.account.get("app_mpi")

        results, _ = run_ranks(2, body)
        assert results[0] > 0.0
        assert results[1] > 0.0

    def test_modeled_nbytes_scales_time(self):
        def make_body(nbytes):
            def body(h):
                if h.rank == 0:
                    yield from h.send(b"tiny", dest=1, nbytes=nbytes)
                else:
                    yield from h.recv(source=0)
                return h.ctx.account.get("app_mpi")

            return body

        small, _ = run_ranks(2, make_body(1e3))
        large, _ = run_ranks(2, make_body(1e8))
        assert large[1] > small[1] * 100

    def test_zero_byte_message(self):
        def body(h):
            if h.rank == 0:
                yield from h.send(None, dest=1, nbytes=0.0)
            else:
                return (yield from h.recv(source=0))
            return None

        results, _ = run_ranks(2, body)
        assert results[1] is None
