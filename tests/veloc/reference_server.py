"""The timing oracle: the node server as a generator process.

This is the VeloC server written the way a process-based simulator
writes it -- a daemon loop blocked on a FIFO, one process per
burst-buffer drain, each piece of a flush one ``yield`` -- which defines
the instants the callback-chain server in :mod:`repro.veloc.server` must
reproduce.  Its processes never finish (the loop waits on its queue for
ever), so run it with ``engine.run(check_deadlock=False)``.
"""

from collections import deque

from repro.sim.resources import hold_pipes
from repro.veloc.server import FlushJob


class _Queue:
    """An unbounded FIFO with a blocking ``get`` (one getter here)."""

    def __init__(self, engine):
        self.engine = engine
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        ev = self.engine.event(name="get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return (yield ev)


def _pick_server(pfs):
    """The round-robin I/O server pick, as the PFS makes it per piece."""
    server = pfs.servers[pfs._rr % len(pfs.servers)]
    pfs._rr += 1
    return server


def _move(pfs, nic, nbytes):
    """At least one chunk, each holding ``nic`` and the next server."""
    remaining = float(nbytes)
    while True:
        piece = min(remaining, pfs.spec.chunk_bytes)
        server = _pick_server(pfs)
        hold = server.latency + piece / min(server.bandwidth, nic.bandwidth)
        yield from hold_pipes(pfs.engine, [(nic, server, hold, piece)])
        remaining -= piece
        if remaining <= 0:
            break


class ReferenceServer:
    """Drop-in for :class:`~repro.veloc.server.VeloCServer` (``submit``,
    ``backlog``, the trace records and spans), as a daemon process."""

    def __init__(self, cluster, node, use_burst_buffer=False):
        self.cluster = cluster
        self.node = node
        self.engine = cluster.engine
        self.use_burst_buffer = (
            use_burst_buffer and cluster.burst_buffer is not None
        )
        self.queue = _Queue(self.engine)
        self.jobs_done = 0
        self.bytes_flushed = 0.0
        self.engine.process(self._run(), name=f"veloc.server{node.index}")

    def submit(self, key, payload, nbytes, stored_nbytes=None):
        done = self.engine.event(name=f"flush:{key}")
        self.queue.put(FlushJob(
            key=key, payload=payload, nbytes=nbytes, done=done,
            stored_nbytes=float(nbytes if stored_nbytes is None
                                else stored_nbytes),
        ))
        src = f"veloc.server{self.node.index}"
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
    def backlog(self):
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
                    yield from _move(target, self.node.tx, job.nbytes)
                    target.bytes_written += float(job.nbytes)
                    target._objects[job.key] = job.payload
                    target._sizes[job.key] = float(job.stored_nbytes)
            finally:
                self.node.active_flushes -= 1
            if self.use_burst_buffer:
                self._start_drain(job)
            self.jobs_done += 1
            self.bytes_flushed += job.nbytes
            self.cluster.trace.emit(
                self.engine.now, src, "flush_done", key=job.key,
                nbytes=job.nbytes,
                tier="bb" if self.use_burst_buffer else "pfs",
            )
            if tel.enabled:
                tel.inc("veloc.flush.bytes", job.nbytes)
                tel.inc("veloc.flush.jobs")
                tel.set_gauge(f"{src}.backlog", self.backlog)
            if not job.done.triggered:
                job.done.succeed(None)

    def _start_drain(self, job):
        cluster = self.cluster

        def drain():
            pfs = cluster.pfs
            tel = cluster.engine.telemetry
            with tel.span(f"veloc.drain{self.node.index}", "veloc.drain",
                          key=str(job.key), nbytes=job.nbytes):
                remaining = float(job.nbytes)
                while remaining > 0:
                    piece = min(remaining, pfs.spec.chunk_bytes)
                    server = _pick_server(pfs)
                    yield from hold_pipes(cluster.engine, [(
                        server, None, server.transfer_time(piece), piece)])
                    remaining -= piece
                pfs._objects[job.key] = job.payload
                pfs._sizes[job.key] = float(job.stored_nbytes or job.nbytes)
                pfs.bytes_written += float(job.nbytes)
            cluster.trace.emit(
                cluster.engine.now, f"veloc.server{self.node.index}",
                "drain_done", key=job.key,
            )
            if tel.enabled:
                tel.inc("veloc.drain.bytes", job.nbytes)

        cluster.engine.process(drain(), name=f"veloc.drain{self.node.index}")
