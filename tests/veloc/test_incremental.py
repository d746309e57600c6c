"""Incremental checkpoint data path.

Two layers under test: copy-on-write :class:`ChunkedSnapshot` building
(only dirty chunks copied, clean chunks shared by reference) and the
client end to end (the flush moves the dirty bytes, a recovery reads the
whole version) -- with bit-for-bit restore equivalence between
``incremental=True`` and ``incremental=False`` as the correctness bar.
"""

import numpy as np
import pytest

from repro.kokkos import KokkosRuntime
from repro.util.errors import ConfigError
from repro.veloc import VeloCConfig
from repro.veloc.snapshot import ChunkedSnapshot, payload_array, snapshot_view
from tests.veloc.conftest import run_veloc_ranks


@pytest.fixture
def rt():
    return KokkosRuntime()


def small_view(rt, label="v"):
    # 64x16 float64, 512-byte chunks -> 16 chunks of 4 rows
    return rt.view(label, shape=(64, 16), chunk_bytes=512)


def assert_chunks_hold(snap, view):
    """Every chunk is immutable ``bytes`` and holds exactly what the view
    holds now -- so what a version restores cannot be stale."""
    assert all(type(chunk) is bytes for chunk in snap.chunks)
    assert b"".join(snap.chunks) == view.copy_data().tobytes()


class TestSnapshotView:
    def test_first_snapshot_copies_everything(self, rt):
        v = small_view(rt)
        v.fill(1.0)
        snap, fresh = snapshot_view(v)
        assert fresh == list(range(16))
        assert np.array_equal(snap.materialize(), v.copy_data())

    def test_cow_copies_only_dirty_chunks(self, rt):
        v = small_view(rt)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[5] = 2.0  # chunk 1
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == [1]
        # clean chunks alias the previous snapshot's objects
        assert all(
            snap.chunks[i] is prev.chunks[i] for i in range(16) if i != 1
        )
        assert snap.chunks[1] is not prev.chunks[1]
        assert np.array_equal(snap.materialize(), v.copy_data())

    def test_cow_base_is_immutable_under_later_writes(self, rt):
        v = small_view(rt)
        v.fill(1.0)
        snap, _ = snapshot_view(v)
        v.clear_dirty()
        v[0] = 9.0
        # the snapshot still materializes the pre-write contents
        assert np.all(snap.materialize() == 1.0)

    def test_incompatible_prev_forces_full_copy(self, rt):
        v = small_view(rt)
        other = rt.view("other", shape=(8, 16), chunk_bytes=512)
        prev, _ = snapshot_view(other)
        v.clear_dirty()
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == list(range(16))

    def test_digests_reused_for_clean_chunks(self, rt):
        # a clean chunk is the previous version's object, not a copy
        v = small_view(rt)
        v[0:64] = np.arange(1024.0).reshape(64, 16)  # 16 distinct chunks
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[0] = 4.0
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == [0]
        assert snap.chunks[0] != prev.chunks[0]
        assert all(snap.chunks[i] is prev.chunks[i] for i in range(1, 16))

    def test_raw_write_after_snapshot_gets_a_fresh_digest(self, rt):
        # a kept .data reference writes behind the view's back: the view
        # is raw-exposed (all chunks fresh), and what the snapshot holds
        # must follow the bytes, not the previous version
        v = small_view(rt)
        raw = v.data
        raw[:] = 1.0
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        raw[:] = 2.0
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == list(range(16))
        assert_chunks_hold(snap, v)
        assert not any(a is b for a, b in zip(snap.chunks, prev.chunks))

    def test_write_through_parent_reaches_subview_digests(self, rt):
        # MiniMD's duplicate captures: the checkpointed view is a subview
        # and the writes go through the parent
        parent = small_view(rt)
        child = parent.subview(slice(None), label="capture")
        prev, _ = snapshot_view(child)
        child.clear_dirty()
        parent[5] = 7.0
        snap, fresh = snapshot_view(child, prev=prev)
        assert_chunks_hold(snap, parent)
        # chunk 1 is new, the other fifteen are the previous objects
        assert snap.chunks[1] != prev.chunks[1]
        assert [i for i in fresh if snap.chunks[i] is not prev.chunks[i]] == [1]
        assert np.array_equal(snap.materialize(), parent.copy_data())

    def test_non_chunkable_single_chunk(self):
        from repro.kokkos.view import View

        base = np.arange(64.0).reshape(8, 8)
        v = View("nc", data=base[:, ::2])  # not C-contiguous
        snap, fresh = snapshot_view(v)
        assert fresh == [0]
        assert snap.n_chunks == 1
        assert_chunks_hold(snap, v)
        assert np.array_equal(snap.materialize(), base[:, ::2])

    def test_payload_array_accepts_both_formats(self, rt):
        v = small_view(rt)
        v.fill(3.0)
        snap, _ = snapshot_view(v)
        assert isinstance(snap, ChunkedSnapshot)
        assert np.array_equal(payload_array(snap), v.copy_data())
        assert np.array_equal(payload_array(v.copy_data()), v.copy_data())

    def test_chunks_are_bytes_and_restores_cannot_reach_them(self, rt):
        # a restored array is the caller's to write: scribbling on it
        # reaches neither a later restore of the same version nor another
        # version sharing the chunk
        v = small_view(rt)
        v.fill(3.0)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[0] = 4.0
        snap, _ = snapshot_view(v, prev=prev)
        assert_chunks_hold(snap, v)
        assert snap.chunks[5] is prev.chunks[5]
        restored = payload_array(snap)
        assert restored.flags.writeable
        assert restored is not payload_array(snap)
        restored[:] = -1.0
        assert np.array_equal(payload_array(snap), v.copy_data())
        assert np.all(payload_array(prev) == 3.0)


class TestBitwiseSharing:
    """A dirty chunk shares the previous copy iff its *bytes* are equal -- numeric equality would break the
    bit-identical restore."""

    NAN_A, NAN_B = 0x7FF8000000000000, 0x7FF8000000000001

    @staticmethod
    def rewrite(v, first_bits, then_bits, uint):
        """Version 0 holds ``first_bits`` everywhere; version 1 rewrites
        chunk 1 (rows 4..7) with ``then_bits``.  Returns both snapshots."""
        rows, cols = v.shape
        v[0:rows] = np.full((rows, cols), first_bits, uint).view(v.dtype)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[4:8] = np.full((4, cols), then_bits, uint).view(v.dtype)
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == [1]  # listed dirty whether or not it changed
        assert payload_array(snap).tobytes() == v.copy_data().tobytes()
        assert_chunks_hold(snap, v)
        return prev, snap

    @pytest.mark.parametrize("first, then, shared", [
        (0x0, 0x8000000000000000, False),  # -0.0 over 0.0
        (0x0, 0x0, True),
        (NAN_A, NAN_A, True),              # the same NaN
        (NAN_A, NAN_B, False),             # another payload
    ])
    def test_float64_bit_patterns(self, rt, first, then, shared):
        # 30 rows: the last of the 8 chunks is short
        v = rt.view("f8", shape=(30, 16), chunk_bytes=512)
        prev, snap = self.rewrite(v, first, then, np.uint64)
        assert (snap.chunks[1] is prev.chunks[1]) == shared
        assert (snap.chunks[1] == prev.chunks[1]) == shared
        assert len(snap.chunks[7]) == 2 * 16 * 8

    def test_short_last_chunk_is_compared_whole(self, rt):
        v = rt.view("tail", shape=(30, 16), chunk_bytes=512)
        v.fill(1.0)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[28:30] = 1.0  # the short chunk, same bytes
        same, _ = snapshot_view(v, prev=prev)
        assert same.chunks[7] is prev.chunks[7]
        v[29] = -1.0    # its very last row
        snap, _ = snapshot_view(v, prev=same)
        assert snap.chunks[7] is not prev.chunks[7]
        assert snap.materialize().tobytes() == v.copy_data().tobytes()
        assert_chunks_hold(snap, v)

    @pytest.mark.parametrize("dtype, uint, first, then, shared", [
        (np.float32, np.uint32, 0x0, 0x80000000, False),
        (np.float32, np.uint32, 0x7FC00000, 0x7FC00000, True),
        (np.float32, np.uint32, 0x7FC00000, 0x7FC00001, False),
        (np.int64, np.uint64, 7, 7, True),
        (np.int64, np.uint64, 7, 8, False),
        (np.int16, np.uint16, 7, 7, True),
    ])
    def test_other_dtypes(self, rt, dtype, uint, first, then, shared):
        # 512-byte chunks over 16-column rows of any item size; 30 rows
        # never divide evenly
        itemsize = np.dtype(dtype).itemsize
        v = rt.view("t", shape=(30, 16), dtype=dtype,
                    chunk_bytes=4 * 16 * itemsize)
        prev, snap = self.rewrite(v, first, then, uint)
        assert (snap.chunks[1] is prev.chunks[1]) == shared

    def test_pure_cow_compares_too(self, rt):
        # a tracked rewrite of the bytes already there is listed dirty
        # (and charged) but keeps the previous chunk object
        v = small_view(rt)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[5] = 0.0  # the bytes already there
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == [1]
        assert snap.chunks[1] is prev.chunks[1]

    def test_any_compatible_snapshot_is_a_base(self, rt):
        # a chunk is just its bytes, so any compatible base lends its
        # chunks: the next version reads one chunk and shares the rest
        v = small_view(rt)
        v[0:64] = np.arange(1024.0).reshape(64, 16)
        prev, _ = snapshot_view(v)
        v.clear_dirty()
        v[5] = -1.0
        snap, fresh = snapshot_view(v, prev=prev)
        assert fresh == [1]
        assert_chunks_hold(snap, v)
        assert all(snap.chunks[i] is prev.chunks[i] for i in range(16)
                   if i != 1)


class TestConfig:
    def test_dedup_is_rejected(self):
        # VeloC has no content dedup; the field stays, False only
        for incremental in (True, False):
            with pytest.raises(ConfigError):
                VeloCConfig(incremental=incremental, dedup=True)

    def test_full_copy_arm(self):
        cfg = VeloCConfig(incremental=False, dedup=False)
        assert not cfg.incremental


class TestClientIncremental:
    def test_steady_state_dirty_bytes_scale_with_writes(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(64, 16), chunk_bytes=512,
                        modeled_nbytes=1.6e6)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)  # full by construction
            v[5] = 1.0  # one of 16 chunks
            yield from client.checkpoint(1)
            return dict(client.stats)

        results, _ = run_veloc_ranks(1, body)
        stats = results[0]
        assert stats["checkpoint_bytes"] == pytest.approx(3.2e6)
        # full first version + 1/16 of the second
        assert stats["dirty_bytes"] == pytest.approx(1.6e6 * (1 + 1 / 16))

    def test_incremental_checkpoint_is_cheaper(self):
        def run(incremental):
            def body(client, h, rt):
                v = rt.view("x", shape=(64, 16), chunk_bytes=512,
                            modeled_nbytes=1e9)
                client.mem_protect(0, v)
                yield from client.checkpoint(0)
                t0 = h.ctx.engine.now
                v[5] = 1.0
                yield from client.checkpoint(1)
                return h.ctx.engine.now - t0

            cfg = VeloCConfig(mode="single", incremental=incremental)
            results, _ = run_veloc_ranks(1, body, config=cfg)
            return results[0]

        assert run(True) < 0.25 * run(False)

    def test_restore_bit_identical_to_full_copy(self):
        rng_seed = 1234

        def run(incremental):
            def body(client, h, rt):
                rng = np.random.default_rng(rng_seed)
                v = rt.view("x", shape=(64, 16), chunk_bytes=512)
                v.load_data(rng.standard_normal((64, 16)))
                client.mem_protect(0, v)
                yield from client.checkpoint(0)
                for version in range(1, 4):
                    # partial tracked updates between checkpoints
                    v[version * 3] = rng.standard_normal(16)
                    v[40:48] = rng.standard_normal((8, 16))
                    yield from client.checkpoint(version)
                v.fill(np.nan)  # "lose" the data
                yield from client.recover(3)
                return v.copy_data()

            cfg = VeloCConfig(mode="single", incremental=incremental)
            results, _ = run_veloc_ranks(1, body, config=cfg)
            return results[0]

        full, incr = run(False), run(True)
        assert full.tobytes() == incr.tobytes()  # bit-for-bit

    def test_restore_marks_view_dirty_again(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(64, 16), chunk_bytes=512)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            assert v.dirty_fraction == 0.0
            yield from client.recover(0)
            # post-restore the next checkpoint must be a full copy
            assert v.dirty_fraction == 1.0
            yield from client.checkpoint(1)
            return dict(client.stats)

        results, _ = run_veloc_ranks(1, body)
        stats = results[0]
        assert stats["dirty_bytes"] == pytest.approx(
            stats["checkpoint_bytes"])

    def test_recover_intermediate_version_exact(self):
        # version v's image must reflect exactly the first v+1 rounds of
        # updates even though later snapshots shared most of its chunks
        def body(client, h, rt):
            v = rt.view("x", shape=(64, 16), chunk_bytes=512)
            client.mem_protect(0, v)
            expected = None
            for version in range(3):
                v[version * 4] = float(version + 1)
                if version == 1:
                    expected = v.copy_data()
                yield from client.checkpoint(version)
            yield from client.recover(1)
            return v.copy_data(), expected

        results, _ = run_veloc_ranks(1, body)
        got, expected = results[0]
        assert np.array_equal(got, expected)


class TestFlush:
    """The flush moves the dirty bytes -- whatever they hold -- and a
    recovery reads the whole version back."""

    def test_identical_content_is_flushed_again(self):
        def body(client, h, rt):
            content = np.arange(1024.0).reshape(64, 16)
            v = rt.view("x", shape=(64, 16), chunk_bytes=512,
                        modeled_nbytes=1e6)
            v.load_data(content)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            v.load_data(content)  # the same bytes, all dirty
            yield from client.checkpoint(1)
            yield from client.wait_flushes()
            server = client.service.server_for(client.ctx.node)
            return dict(client.stats), server.bytes_flushed

        results, _ = run_veloc_ranks(1, body)
        stats, flushed = results[0]
        assert stats["dirty_bytes"] == pytest.approx(2e6)
        assert flushed == pytest.approx(2e6)
        assert stats["novel_bytes"] == stats["dirty_bytes"]

    def test_pfs_read_cost_is_the_whole_version(self):
        def body(client, h, rt):
            v = rt.view("x", shape=(64, 16), chunk_bytes=512,
                        modeled_nbytes=1e8)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            v[5] = 2.0  # one of 16 chunks dirty: a 1/16 flush
            yield from client.checkpoint(1)
            yield from client.wait_flushes()
            client.ctx.node.wipe()
            t0 = h.ctx.engine.now
            yield from client.recover(1)
            return h.ctx.engine.now - t0

        results, _ = run_veloc_ranks(1, body, pfs_bw=1e8)
        # reading version 1 from the PFS charges the full logical size
        # (~1s at 1e8 B/s), not the 1/16 it flushed
        assert results[0] > 0.5
