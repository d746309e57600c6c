"""Per-node VeloC server: asynchronous scratch-to-PFS flushing.

One daemon process per node drains a FIFO of flush jobs.  Each job moves
the checkpoint's *modelled* bytes through the node NIC and the PFS I/O
servers in chunks (so application messages interleave between chunks
rather than stalling behind a full checkpoint), then records the version
as persisted.  This is the mechanism behind the paper's observation that
VeloC's checkpoint-function cost is tiny while the real cost surfaces as
network congestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.sim.cluster import Cluster
from repro.sim.engine import Event
from repro.sim.node import Node
from repro.sim.resources import Store, hold_pipes


@dataclass
class FlushJob:
    """One checkpoint version to persist for one rank.

    ``nbytes`` is what the flush *moves* (novel bytes under the
    incremental/dedup data path); ``stored_nbytes`` is the full logical
    size of the version, which is what a later recovery has to read back.
    """

    key: Tuple
    payload: Any
    nbytes: float
    done: Event
    stored_nbytes: float = 0.0


class VeloCServer:
    """The co-located checkpoint server for one node.

    With ``use_burst_buffer`` (and a cluster that has one), the flush is
    two-stage: scratch -> burst buffer (fast, clears the node quickly),
    then a background drain moves the object burst buffer -> PFS without
    touching the node again.  The ``done`` event fires at burst-buffer
    residency -- the point where the data survives the node's loss.
    """

    def __init__(
        self, cluster: Cluster, node: Node, use_burst_buffer: bool = False
    ) -> None:
        self.cluster = cluster
        self.node = node
        self.engine = cluster.engine
        self.use_burst_buffer = (
            use_burst_buffer and cluster.burst_buffer is not None
        )
        self.queue: Store = Store(self.engine, name=f"veloc.srv{node.index}.q")
        self.jobs_done = 0
        self.bytes_flushed = 0.0
        # content-addressed chunk index: the address (see register_chunks)
        # of every chunk this node's server has already accepted for
        # persistence (any rank, any version).  Chunks found here need no
        # re-flush -- the dedup half of the incremental data path.
        self._chunk_index: set = set()
        self.chunks_seen = 0
        self.chunks_deduped = 0
        # not kept: the process's generator holds this server already
        self.engine.process(
            self._run(), name=f"veloc.server{node.index}", daemon=True
        )

    def register_chunks(self, chunks) -> int:
        """Offer chunks (``bytes``) to the content-addressed store;
        returns how many were *novel* (not yet resident).  Idempotent per
        content: re-offering a known chunk costs nothing.

        A chunk's address is ``hash(chunk)``: the interpreter's keyed
        64-bit SipHash of the bytes, computed on first use and cached in
        the object, so a chunk shared between versions is read once.
        The address is process-local (the key is ``PYTHONHASHSEED``) and
        stays in this set: nothing persists, pickles, traces or reports
        one, so no simulated number depends on the key.  Two different
        chunks share an address with probability ~ n^2 / 2^65 over n
        distinct chunks through one node server (3e-8 at a million
        chunks, i.e. 64 GiB of real bytes in one process), and the whole
        effect is one flush charged one chunk's modelled share too
        little: a snapshot holds its own bytes, so nothing restored can
        depend on this index."""
        novel = 0
        for chunk in chunks:
            address = hash(chunk)
            self.chunks_seen += 1
            if address in self._chunk_index:
                self.chunks_deduped += 1
            else:
                self._chunk_index.add(address)
                novel += 1
        return novel

    def submit(
        self,
        key: Tuple,
        payload: Any,
        nbytes: float,
        stored_nbytes: float = None,
    ) -> Event:
        """Queue a flush; returns an event that succeeds when persisted."""
        done = self.engine.event(name=f"flush:{key}")
        self.queue.put(FlushJob(
            key=key, payload=payload, nbytes=nbytes, done=done,
            stored_nbytes=float(nbytes if stored_nbytes is None
                                else stored_nbytes),
        ))
        src = f"veloc.server{self.node.index}"
        # the enqueue side of the backlog: paired with flush_done, live
        # consumers (repro.live) integrate these into an exact
        # bytes-in-flight series without reading server internals
        self.cluster.trace.emit(
            self.engine.now, src, "flush_submit",
            key=key, nbytes=nbytes, backlog=self.backlog,
        )
        tel = self.engine.telemetry
        if tel.enabled:
            tel.instant(src, "veloc.submit", key=str(key), nbytes=nbytes)
            tel.set_gauge(f"{src}.backlog", self.backlog)
            tel.observe("veloc.flush.backlog", self.backlog)
        return done

    @property
    def backlog(self) -> int:
        return len(self.queue)

    def _run(self):
        pfs = self.cluster.pfs
        bb = self.cluster.burst_buffer
        src = f"veloc.server{self.node.index}"
        while True:
            job = yield from self.queue.get()
            tel = self.engine.telemetry
            target = bb if self.use_burst_buffer else pfs
            self.node.active_flushes += 1
            try:
                with tel.span(src, "veloc.flush",
                              key=str(job.key), nbytes=job.nbytes):
                    yield from target.write(
                        job.key, job.payload, job.nbytes, self.node
                    )
                    if job.stored_nbytes != job.nbytes:
                        # dedup moved fewer bytes than the version holds;
                        # a recovery still reads the full logical size
                        target._sizes[job.key] = float(job.stored_nbytes)
            finally:
                self.node.active_flushes -= 1
            if self.use_burst_buffer:
                self._start_drain(job)
            self.jobs_done += 1
            self.bytes_flushed += job.nbytes
            self.cluster.trace.emit(
                self.engine.now,
                src,
                "flush_done",
                key=job.key,
                nbytes=job.nbytes,
                tier="bb" if self.use_burst_buffer else "pfs",
            )
            if tel.enabled:
                tel.inc("veloc.flush.bytes", job.nbytes)
                tel.inc("veloc.flush.jobs")
                tel.set_gauge(f"{src}.backlog", self.backlog)
            if not job.done.triggered:
                job.done.succeed(None)

    def _start_drain(self, job: FlushJob) -> None:
        """Background burst-buffer -> PFS migration (fabric-side: costs
        PFS server time but no node NIC)."""
        cluster = self.cluster

        def drain():
            pfs = cluster.pfs
            tel = cluster.engine.telemetry
            # own track: the drain overlaps the server's next flush, and
            # concurrent spans must not share one source's nesting stack
            with tel.span(f"veloc.drain{self.node.index}", "veloc.drain",
                          key=str(job.key), nbytes=job.nbytes):
                remaining = float(job.nbytes)
                chunk_size = pfs.spec.chunk_bytes
                while remaining > 0:
                    piece = min(remaining, chunk_size)
                    server = pfs._pick_server()
                    yield from hold_pipes(
                        server, None, server.transfer_time(piece), piece
                    )
                    remaining -= piece
                pfs._objects[job.key] = job.payload
                pfs._sizes[job.key] = float(job.stored_nbytes or job.nbytes)
                pfs.bytes_written += float(job.nbytes)
            cluster.trace.emit(
                cluster.engine.now,
                f"veloc.server{self.node.index}",
                "drain_done",
                key=job.key,
            )
            if tel.enabled:
                tel.inc("veloc.drain.bytes", job.nbytes)

        cluster.engine.process(
            drain(), name=f"veloc.drain{self.node.index}", daemon=True
        )


class VeloCService:
    """Lazily creates one server per node of a cluster.

    Shared by all ranks co-located on a node, exactly like the real VeloC
    active-backend daemon.
    """

    def __init__(self, cluster: Cluster, use_burst_buffer: bool = False) -> None:
        self.cluster = cluster
        self.use_burst_buffer = use_burst_buffer
        self._servers: Dict[int, VeloCServer] = {}

    def server_for(self, node: Node) -> VeloCServer:
        server = self._servers.get(node.index)
        if server is None:
            server = VeloCServer(
                self.cluster, node, use_burst_buffer=self.use_burst_buffer
            )
            self._servers[node.index] = server
        return server

    @property
    def servers(self) -> Dict[int, VeloCServer]:
        return dict(self._servers)
