"""Copy-on-write chunked snapshots for the incremental VeloC data path.

A :class:`ChunkedSnapshot` is one protected region's checkpoint image,
stored as a list of fixed-size flat chunks.  Building version *v+1* from
version *v* copies only the chunks the view reports dirty; clean chunks
are shared **by reference** with the previous snapshot's chunk objects, so
steady-state host cost scales with the dirty fraction, not the region
size (the ReStore-style incremental store).  Content digests live in
the snapshot, next to the chunks they describe (see
:func:`snapshot_view` for how one is obtained).  Every snapshot is still
self-contained -- :meth:`ChunkedSnapshot.materialize` reassembles the full
array from whatever mix of fresh and shared chunks it holds -- so restore
correctness never depends on which chunks were deduplicated or shared.

Legacy full-copy snapshots remain plain ndarrays; :func:`payload_array`
accepts both forms, which keeps old scratch/PFS payloads restorable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kokkos.view import View, chunk_digest


class ChunkedSnapshot:
    """An immutable chunked image of one view's contents."""

    __slots__ = ("shape", "dtype", "chunk_elems", "chunks", "digests", "nbytes")

    def __init__(
        self,
        shape,
        dtype,
        chunk_elems: int,
        chunks: List[np.ndarray],
        digests: Optional[List[Optional[bytes]]],
        nbytes: float,
    ) -> None:
        self.shape = tuple(shape)
        self.dtype = dtype
        self.chunk_elems = int(chunk_elems)
        self.chunks = chunks
        self.digests = digests
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
        shared across versions, never elided)."""
        flat = np.concatenate(self.chunks) if self.chunks else np.empty(
            0, dtype=self.dtype
        )
        return flat.reshape(self.shape)


def snapshot_view(
    view: View,
    prev: Optional[ChunkedSnapshot] = None,
    hash_chunks: bool = False,
) -> Tuple[ChunkedSnapshot, List[int]]:
    """Snapshot ``view``, sharing unchanged chunks with ``prev``.

    Chunks the view lists dirty (every chunk, when ``prev`` is absent or
    incompatible or the view is conservative) are candidates for a fresh
    copy; the rest alias ``prev``'s chunk objects.  With ``hash_chunks``
    each chunk also carries its blake2b-128 content digest for the
    server's content-addressed store, and the snapshot owns it: a digest
    is either inherited from ``prev`` together with the chunk object --
    for a clean chunk, or a dirty one whose bytes compare equal to
    ``prev``'s copy -- or computed once from the fresh copy.  It is never
    asked of the view, so it cannot be stale.  The compare is over bytes,
    not values (``-0.0`` is not ``0.0``; equal NaN payloads are equal):
    sharing must keep the restore bit-identical.  Without hashing nothing
    is compared: a compare costs what the copy costs.

    Returns ``(snapshot, fresh)`` where ``fresh`` lists the chunk indices
    the view reported dirty, whether or not their bytes turned out to
    have changed -- what the incremental memcpy cost model charges for
    and what the client offers the server's chunk index.
    """
    if not view.chunkable:
        # non-chunk-addressable buffer: single full chunk, flattened copy
        flat = view.copy_data().reshape(-1)
        snap = ChunkedSnapshot(
            view.shape, view.dtype, max(1, flat.size), [flat],
            [chunk_digest(flat)] if hash_chunks else None, view.nbytes,
        )
        return snap, [0]
    # a base recorded without digests cannot lend any
    cow = (
        prev is not None
        and prev.compatible_with(view)
        and not (hash_chunks and prev.digests is None)
    )
    if cow:
        fresh = view.dirty_chunks()
        chunks = list(prev.chunks)
        digests = list(prev.digests) if hash_chunks else None
    else:
        n = view.n_chunks
        fresh = list(range(n))
        chunks = [None] * n
        digests = [None] * n if hash_chunks else None
    compare = cow and hash_chunks
    flat = view.flat_array()
    ce = view.chunk_elems
    for i in fresh:
        current = flat[i * ce:(i + 1) * ce]  # the last chunk may be short
        if compare and current.tobytes() == chunks[i].tobytes():
            continue  # same bytes: keep prev's chunk object and digest
        chunks[i] = current.copy()
        if hash_chunks:
            digests[i] = chunk_digest(chunks[i])
    snap = ChunkedSnapshot(
        view.shape, view.dtype, ce, chunks, digests, view.nbytes
    )
    return snap, fresh


def payload_array(obj) -> np.ndarray:
    """The full ndarray behind a stored region payload (either format)."""
    if isinstance(obj, ChunkedSnapshot):
        return obj.materialize()
    return np.asarray(obj)
