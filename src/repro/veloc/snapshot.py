"""Copy-on-write chunked snapshots for the incremental VeloC data path.

A :class:`ChunkedSnapshot` is one protected region's checkpoint image,
stored as a list of fixed-size chunks, each an immutable ``bytes``
object.  Building version *v+1* from version *v* reads only the chunks
the view reports dirty; clean chunks -- and dirty ones whose bytes did
not change -- are shared **by reference** with the previous snapshot's
chunk objects, so steady-state host cost scales with the dirty fraction,
not the region size (the ReStore-style incremental store).  A chunk *is*
its bytes: there is nothing beside it that could disagree with it, and
nobody holding a snapshot can write into a chunk another version shares.
Every snapshot is still self-contained --
:meth:`ChunkedSnapshot.materialize` reassembles the full array from
whatever mix of fresh and shared chunks it holds -- so restore
correctness never depends on which chunks were shared.  Nothing is
content-addressed: sharing is by reference to the previous version only.

Legacy full-copy snapshots remain plain ndarrays; :func:`payload_array`
accepts both forms, which keeps old scratch/PFS payloads restorable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kokkos.view import View


class ChunkedSnapshot:
    """An immutable chunked image of one view's contents."""

    __slots__ = ("shape", "dtype", "chunk_elems", "chunks", "nbytes")

    def __init__(
        self,
        shape,
        dtype,
        chunk_elems: int,
        chunks: List[bytes],
        nbytes: float,
    ) -> None:
        self.shape = tuple(shape)
        self.dtype = dtype
        self.chunk_elems = int(chunk_elems)
        self.chunks = chunks
        #: real bytes of the full region (not just the fresh chunks)
        self.nbytes = float(nbytes)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def compatible_with(self, view: View) -> bool:
        """Whether this snapshot can serve as the COW base for ``view``."""
        return (
            self.shape == view.shape
            and self.dtype == view.dtype
            and self.chunk_elems == view.chunk_elems
        )

    def materialize(self) -> np.ndarray:
        """Reassemble the full array (always possible: chunk objects are
        shared across versions, never elided).  The result is a fresh,
        writable array on every call: the chunks are only read."""
        # concatenating frombuffer views copies each byte once into a
        # writable array; b"".join + frombuffer copies them into a
        # read-only one and costs more than twice as much
        return np.concatenate(
            [np.frombuffer(chunk, dtype=self.dtype) for chunk in self.chunks]
        ).reshape(self.shape)


def snapshot_view(
    view: View,
    prev: Optional[ChunkedSnapshot] = None,
) -> Tuple[ChunkedSnapshot, List[int]]:
    """Snapshot ``view``, sharing unchanged chunks with ``prev``.

    Chunks the view lists dirty (every chunk, when ``prev`` is absent or
    incompatible or the view is conservative) are read out of the buffer
    as ``bytes``; the rest alias ``prev``'s chunk objects.  A dirty chunk
    whose bytes equal ``prev``'s copy keeps ``prev``'s object as well,
    otherwise the bytes just read *are* the new chunk: the copy and the
    thing compared are one allocation, always taken from the buffer and
    never asked of the view, so neither can be stale.  The compare is over bytes, not
    values (``-0.0`` is not ``0.0``; equal NaN payloads are equal):
    sharing must keep the restore bit-identical.

    Returns ``(snapshot, fresh)`` where ``fresh`` lists the chunk indices
    the view reported dirty, whether or not their bytes turned out to
    have changed -- what the incremental memcpy and flush cost model
    charges for.
    """
    if not view.chunkable:
        # non-chunk-addressable buffer: single full chunk, C-order bytes
        snap = ChunkedSnapshot(
            view.shape, view.dtype, max(1, view.size),
            [view.copy_data().tobytes()], view.nbytes,
        )
        return snap, [0]
    if prev is not None and prev.compatible_with(view):
        fresh = view.dirty_chunks()
        chunks = list(prev.chunks)
    else:
        fresh = list(range(view.n_chunks))
        chunks = [None] * len(fresh)
    flat = view.flat_array()
    ce = view.chunk_elems
    for i in fresh:
        current = flat[i * ce:(i + 1) * ce].tobytes()  # the last may be short
        if current != chunks[i]:
            chunks[i] = current
    snap = ChunkedSnapshot(view.shape, view.dtype, ce, chunks, view.nbytes)
    return snap, fresh


def payload_array(obj) -> np.ndarray:
    """The full ndarray behind a stored region payload (either format)."""
    if isinstance(obj, ChunkedSnapshot):
        return obj.materialize()
    return np.asarray(obj)
