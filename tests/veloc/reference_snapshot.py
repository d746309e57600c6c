"""The snapshot oracle: copy every dirty chunk, share nothing else.

This is ``snapshot_view`` as it stood before chunks became ``bytes``:
ndarray chunks, each dirty chunk a fresh copy and each clean one the
previous snapshot's object.  The reference never compares and never
shares a dirty chunk.  The real ``snapshot_view`` must be
indistinguishable from it in everything the model sees -- ``fresh``,
restored bytes -- and differ only in which chunk objects a snapshot
shares with the previous version.
"""

import numpy as np

from repro.veloc.snapshot import ChunkedSnapshot


class ReferenceSnapshot(ChunkedSnapshot):
    """ndarray chunks."""

    __slots__ = ()

    def materialize(self):
        return np.concatenate(self.chunks).reshape(self.shape)


def reference_snapshot_view(view, prev=None):
    if not view.chunkable:
        flat = view.copy_data().reshape(-1)
        return ReferenceSnapshot(
            view.shape, view.dtype, max(1, flat.size), [flat], view.nbytes,
        ), [0]
    n = view.n_chunks
    cow = prev is not None and prev.compatible_with(view) and prev.n_chunks == n
    fresh = sorted(view.dirty_chunks()) if cow else list(range(n))
    chunks = [view.chunk_array(i).copy() if i in fresh else prev.chunks[i]
              for i in range(n)]
    return ReferenceSnapshot(
        view.shape, view.dtype, view.chunk_elems, chunks, view.nbytes
    ), fresh
