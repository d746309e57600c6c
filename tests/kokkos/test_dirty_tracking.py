"""Chunked dirty tracking and content hashing on View.

The incremental VeloC data path relies on three guarantees from the
view layer: tracked writes mark exactly the chunks they touch, untracked
escape hatches (raw ``.data`` access, subviews, ``__array__``) degrade
*conservatively* to all-dirty, and chunk hashes follow content.
"""

import numpy as np
import pytest

from repro.kokkos import KokkosRuntime, View, deep_copy
from repro.kokkos.view import DEFAULT_CHUNK_BYTES


@pytest.fixture
def rt():
    return KokkosRuntime()


def chunked_view(rt, rows=64, cols=16, chunk_bytes=None, label="v"):
    # 16 float64 cols = 128 B/row; chunk_bytes=512 -> 4 rows per chunk,
    # 16 chunks total
    return rt.view(label, shape=(rows, cols),
                   chunk_bytes=chunk_bytes or 512)


class TestChunkGeometry:
    def test_chunk_elems_and_count(self, rt):
        v = chunked_view(rt)
        assert v.chunk_elems == 512 // 8
        assert v.n_chunks == 16

    def test_default_chunk_bytes(self, rt):
        v = rt.view("d", shape=(4,))
        assert v.chunk_bytes == DEFAULT_CHUNK_BYTES
        assert v.n_chunks == 1  # small array -> one chunk

    def test_chunk_slices_cover_buffer(self, rt):
        v = chunked_view(rt, rows=10)  # 160 elems, 64/chunk -> ragged tail
        covered = sum(
            v.chunk_array(i).size for i in range(v.n_chunks)
        )
        assert covered == v.size

    def test_tiny_chunk_bytes_floor_one_elem(self, rt):
        v = rt.view("t", shape=(8,), chunk_bytes=1)
        assert v.chunk_elems == 1
        assert v.n_chunks == 8


class TestDirtyMarking:
    def test_new_view_fully_dirty(self, rt):
        v = chunked_view(rt)
        assert v.dirty_chunks() == list(range(16))
        assert v.dirty_fraction == 1.0

    def test_clear_then_clean(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        assert v.dirty_chunks() == []
        assert v.dirty_fraction == 0.0

    def test_setitem_row_marks_one_chunk(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[5] = 1.0  # rows 4-7 live in chunk 1
        assert v.dirty_chunks() == [1]

    def test_setitem_tuple_marks_row_chunk(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[9, 3] = 2.0
        assert v.dirty_chunks() == [2]

    def test_negative_row_index(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[-1] = 3.0
        assert v.dirty_chunks() == [15]

    def test_slice_marks_covered_chunks(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[4:12] = 1.0
        assert v.dirty_chunks() == [1, 2]

    def test_strided_slice_is_conservative(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[::2] = 1.0
        assert v.dirty_chunks() == list(range(16))

    def test_fancy_index_is_conservative(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v[np.array([0, 40])] = 1.0
        assert v.dirty_chunks() == list(range(16))

    def test_fill_marks_all(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v.fill(7.0)
        assert v.dirty_fraction == 1.0

    def test_load_data_marks_all(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v.load_data(np.ones(v.shape))
        assert v.dirty_fraction == 1.0

    def test_deep_copy_marks_dst(self, rt):
        a = chunked_view(rt, label="a")
        b = chunked_view(rt, label="b")
        b.clear_dirty()
        deep_copy(b, a)
        assert b.dirty_fraction == 1.0


class TestConservativeFallbacks:
    def test_raw_data_read_is_sticky(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        _ = v.data  # hands out a mutable alias
        assert v.dirty_chunks() == list(range(16))
        v.clear_dirty()  # clearing must NOT forget the escape
        assert v.dirty_chunks() == list(range(16))

    def test_reset_dirty_tracking_opts_back_in(self, rt):
        v = chunked_view(rt)
        _ = v.data
        v.reset_dirty_tracking()
        assert v.dirty_fraction == 1.0  # next checkpoint is still full
        v.clear_dirty()
        v[0] = 1.0
        assert v.dirty_chunks() == [0]  # exact tracking again

    def test_data_rebind_marks_all(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        v.data = np.ones((64, 16))
        assert v.dirty_fraction == 1.0
        # the chunk grid is sized per binding: another buffer, another grid
        v.data = np.ones((30, 16), dtype=np.float32)
        assert (v.chunk_elems, v.n_chunks) == (128, 4)
        assert v.dirty_chunks() == [0, 1, 2, 3]

    def test_subview_taints_parent_and_child(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        sub = v.subview(slice(0, 4), label="sub")
        assert v.dirty_chunks() == list(range(16))
        assert sub.dirty_chunks() == list(range(sub.n_chunks))

    def test_array_protocol_no_copy_is_sticky(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        np.asarray(v)
        v.clear_dirty()
        assert v.dirty_fraction == 1.0

    def test_getitem_scalar_read_stays_exact(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        _ = v[3, 2]  # scalar: no alias escapes
        assert v.dirty_chunks() == []

    def test_getitem_slice_read_is_sticky(self, rt):
        v = chunked_view(rt)
        v.clear_dirty()
        row = v[3]  # an ndarray alias escapes
        assert isinstance(row, np.ndarray)
        assert v.dirty_fraction == 1.0

    def test_non_contiguous_not_chunkable(self):
        base = np.zeros((8, 8))
        v = View("nc", data=base[:, ::2])
        assert not v.chunkable
        v.clear_dirty()
        assert v.dirty_chunks() == list(range(v.n_chunks))


class TestChunkHashing:
    def test_hash_tracks_content(self, rt):
        v = chunked_view(rt)
        from repro.veloc.snapshot import snapshot_view

        h0 = v.chunk_hash(0)
        # the address the checkpoint path forms for the same bytes
        assert h0 == hash(snapshot_view(v)[0].chunks[0])
        v[0] = 5.0
        assert v.chunk_hash(0) != h0

    def test_hash_is_a_pure_function_of_the_bytes(self, rt):
        # the view keeps no digest state: a write it cannot see (through
        # a kept raw reference) still changes the next hash
        v = chunked_view(rt)
        raw = v.data
        h = v.chunk_hash(2)
        assert h == v.chunk_hash(2)
        raw[8] = 1.0  # chunk 2, untracked
        assert v.chunk_hash(2) != h

    def test_equal_content_equal_hash_across_views(self, rt):
        a = chunked_view(rt, label="a")
        b = chunked_view(rt, label="b")
        a.fill(3.0)
        b.fill(3.0)
        assert a.chunk_hash(1) == b.chunk_hash(1)
        assert a.chunk_hash(0) == a.chunk_hash(1)  # uniform content


class TestBufferLiveness:
    def test_buffer_id_stable_after_parent_scope_exit(self):
        import gc

        def make():
            base = np.arange(64.0)
            return (View("lo", data=base[:32]), View("hi", data=base[16:]))

        lo, hi = make()  # the caller's `base` reference is gone
        gc.collect()
        # the numpy base chain keeps the root buffer alive, so the ids
        # still agree -- duplicate detection cannot alias a dead buffer
        assert lo.buffer_id() == hi.buffer_id()
        other = View("other", data=np.arange(64.0))
        assert other.buffer_id() != lo.buffer_id()
