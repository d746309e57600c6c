"""The snapshot oracle: copy every dirty chunk, hash every copy.

This is ``snapshot_view`` as it stood before digests moved into the
snapshot, minus the view-side hash cache (so it is the *honest* version:
a digest is always blake2b of the bytes just copied).  It never compares
and never shares a dirty chunk.  The real ``snapshot_view`` must be
indistinguishable from it in everything the model sees -- ``fresh``,
digests, novel counts, restored bytes -- and differ only in which chunk
objects it shares with the previous version.
"""

import hashlib

from repro.veloc.snapshot import ChunkedSnapshot


def blake(chunk):
    return hashlib.blake2b(chunk.tobytes(), digest_size=16).digest()


def reference_snapshot_view(view, prev=None, hash_chunks=False):
    if not view.chunkable:
        flat = view.copy_data().reshape(-1)
        return ChunkedSnapshot(
            view.shape, view.dtype, max(1, flat.size), [flat],
            [blake(flat)] if hash_chunks else None, view.nbytes,
        ), [0]
    n = view.n_chunks
    cow = prev is not None and prev.compatible_with(view) and prev.n_chunks == n
    fresh = sorted(view.dirty_chunks()) if cow else list(range(n))
    chunks, digests = [], ([] if hash_chunks else None)
    for i in range(n):
        if i in fresh:
            chunks.append(view.chunk_array(i).copy())
            if hash_chunks:
                digests.append(blake(chunks[i]))
        else:
            chunks.append(prev.chunks[i])
            if hash_chunks:
                digests.append(prev.digests[i])
    return ChunkedSnapshot(
        view.shape, view.dtype, view.chunk_elems, chunks, digests, view.nbytes
    ), fresh
