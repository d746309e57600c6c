"""The snapshot oracle: copy every dirty chunk, hash every copy.

This is ``snapshot_view`` as it stood before digests moved into the
snapshot, minus the view-side hash cache (so it is the *honest* version:
a digest is always blake2b of the bytes just copied), with ndarray
chunks and a digest list beside them; :class:`ReferenceIndex` is the node
server's chunk index as it stood while it held those digests.  The
reference never compares and never shares a dirty chunk.  The real
``snapshot_view`` and ``VeloCServer.register_chunks`` must be
indistinguishable from the pair in everything the model sees -- ``fresh``,
what is offered to the index and in which order, novel counts,
seen/deduped counters, restored bytes -- and differ only in which chunk
objects a snapshot shares with the previous version.
"""

import hashlib

import numpy as np

from repro.veloc.snapshot import ChunkedSnapshot


def blake(chunk):
    return hashlib.blake2b(chunk.tobytes(), digest_size=16).digest()


class ReferenceSnapshot(ChunkedSnapshot):
    """ndarray chunks, one digest per chunk when hashing was asked for."""

    __slots__ = ("digests",)

    def __init__(self, shape, dtype, chunk_elems, chunks, digests, nbytes):
        super().__init__(shape, dtype, chunk_elems, chunks, nbytes)
        self.digests = digests

    def materialize(self):
        return np.concatenate(self.chunks).reshape(self.shape)


class ReferenceIndex:
    """The node server's chunk index while it was a set of digests."""

    def __init__(self):
        self.digests = set()
        self.chunks_seen = self.chunks_deduped = 0

    def register_chunks(self, digests):
        novel = 0
        for digest in digests:
            self.chunks_seen += 1
            if digest in self.digests:
                self.chunks_deduped += 1
            else:
                self.digests.add(digest)
                novel += 1
        return novel


def reference_snapshot_view(view, prev=None, hash_chunks=False):
    if not view.chunkable:
        flat = view.copy_data().reshape(-1)
        return ReferenceSnapshot(
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
    return ReferenceSnapshot(
        view.shape, view.dtype, view.chunk_elems, chunks, digests, view.nbytes
    ), fresh
