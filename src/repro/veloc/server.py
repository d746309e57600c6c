"""Per-node VeloC server: asynchronous scratch-to-PFS flushing.

One server per node drains a FIFO of flush jobs, one at a time.  Each
job moves the checkpoint's *modelled* bytes through the node NIC and the
PFS I/O servers in chunks (so application messages interleave between
chunks rather than stalling behind a full checkpoint), then records the
version as persisted.  A server is no process: it is its queue plus the
:class:`~repro.sim.resources.PipeHold` chain of its current job, each
step an engine callback at the instant a waiting process would have
taken it.  This is the mechanism behind the paper's observation that
VeloC's checkpoint-function cost is tiny while the real cost surfaces as
network congestion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

from repro.sim.cluster import Cluster
from repro.sim.engine import Event
from repro.sim.filesystem import ParallelFileSystem
from repro.sim.node import Node
from repro.sim.resources import Piece, PipeHold


@dataclass
class FlushJob:
    """One checkpoint version to persist for one rank.

    ``nbytes`` is what the flush *moves* (the dirty bytes under the
    incremental data path); ``stored_nbytes`` is the full logical size of
    the version, which is what a later recovery has to read back.
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
        self._target: ParallelFileSystem = (
            cluster.burst_buffer if self.use_burst_buffer else cluster.pfs
        )
        self._queue: deque[FlushJob] = deque()
        #: a job is on its way or in flight; from the start, so that a job
        #: submitted before the server's first step waits for that step
        self._busy = True
        self.jobs_done = 0
        self.bytes_flushed = 0.0
        self.engine.call_soon(self._next)

    def submit(
        self,
        key: Tuple,
        payload: Any,
        nbytes: float,
        stored_nbytes: float = None,
    ) -> Event:
        """Queue a flush; returns an event that succeeds when persisted."""
        done = Event(self.engine, ("flush:%s", key))
        job = FlushJob(
            key=key, payload=payload, nbytes=nbytes, done=done,
            stored_nbytes=float(nbytes if stored_nbytes is None
                                else stored_nbytes),
        )
        if self._busy:
            self._queue.append(job)
        else:
            self._busy = True
            self.engine.call_soon(self._flush, job)
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
        return len(self._queue)

    def _next(self, _: Any = None) -> None:
        """Start the next queued job one zero-delay hop from now, or go
        idle until :meth:`submit` starts one."""
        if self._queue:
            self.engine.call_soon(self._flush, self._queue.popleft())
        else:
            self._busy = False

    def _flush(self, job: FlushJob) -> None:
        self.node.active_flushes += 1
        span = self.engine.telemetry.span(
            f"veloc.server{self.node.index}", "veloc.flush",
            key=str(job.key), nbytes=job.nbytes)
        span.__enter__()
        PipeHold(self._target._pieces(self.node.tx, job.nbytes),
                 self._flushed, (job, span))

    def _flushed(self, job_span: Tuple[FlushJob, Any]) -> None:
        job, span = job_span
        # an incremental version moved fewer bytes than it holds; a
        # recovery still reads the full logical size
        self._target._store(job.key, job.payload, job.nbytes,
                            job.stored_nbytes)
        span.__exit__(None, None, None)
        self.node.active_flushes -= 1
        if self.use_burst_buffer:
            self.engine.call_soon(self._drain, job)
        self.jobs_done += 1
        self.bytes_flushed += job.nbytes
        src = f"veloc.server{self.node.index}"
        self.cluster.trace.emit(
            self.engine.now,
            src,
            "flush_done",
            key=job.key,
            nbytes=job.nbytes,
            tier="bb" if self.use_burst_buffer else "pfs",
        )
        tel = self.engine.telemetry
        if tel.enabled:
            tel.inc("veloc.flush.bytes", job.nbytes)
            tel.inc("veloc.flush.jobs")
            tel.set_gauge(f"{src}.backlog", self.backlog)
        if not job.done.triggered:
            job.done.succeed(None)
        self._next()

    def _drain(self, job: FlushJob) -> None:
        """Background burst-buffer -> PFS migration (fabric-side: costs
        PFS server time but no node NIC)."""
        # own track: the drain overlaps the server's next flush, and
        # concurrent spans must not share one source's nesting stack
        span = self.engine.telemetry.span(
            f"veloc.drain{self.node.index}", "veloc.drain",
            key=str(job.key), nbytes=job.nbytes)
        span.__enter__()
        PipeHold(_drain_pieces(self.cluster.pfs, job.nbytes), self._drained,
                 (job, span))

    def _drained(self, job_span: Tuple[FlushJob, Any]) -> None:
        job, span = job_span
        self.cluster.pfs._store(job.key, job.payload, job.nbytes,
                                job.stored_nbytes or job.nbytes)
        span.__exit__(None, None, None)
        self.cluster.trace.emit(
            self.engine.now,
            f"veloc.server{self.node.index}",
            "drain_done",
            key=job.key,
        )
        tel = self.engine.telemetry
        if tel.enabled:
            tel.inc("veloc.drain.bytes", job.nbytes)


def _drain_pieces(pfs: ParallelFileSystem, nbytes: float) -> Iterator[Piece]:
    """A drain's pieces: none for no bytes, each on the round-robin I/O
    server picked as it starts."""
    remaining = float(nbytes)
    while remaining > 0:
        piece = min(remaining, pfs.spec.chunk_bytes)
        server = pfs.servers[pfs._rr % len(pfs.servers)]
        pfs._rr += 1
        yield server, None, server.transfer_time(piece), piece
        remaining -= piece


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
