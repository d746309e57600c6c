"""Contended-resource primitives for the cluster model.

Two primitives cover every piece of modelled hardware:

- :class:`BandwidthPipe` -- a serializing link with latency + bandwidth
  and a FIFO lock; the building block for NICs and PFS I/O servers.
- :class:`PipeHold` -- "move these pieces, each through one or two
  pipes", the one place pipe locks are taken.  NIC-to-NIC messages,
  PFS reads and writes, VeloC flushes and burst-buffer drains are all
  this, as a callback chain or (for callers that are processes) behind
  the :func:`hold_pipes` generator.  Large transfers are cut into
  pieces so that competing traffic can interleave (this is exactly how
  the VeloC server's asynchronous flushes delay application MPI
  messages in the paper's Figure 5 discussion).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional, Tuple

from repro.sim.engine import Engine, Event
from repro.util.errors import SimulationError


class BandwidthPipe:
    """A serializing link: one holder at a time, cost = latency + n/bw.

    Models a NIC port or a PFS I/O server.  FIFO service means a message
    queued behind a large transfer waits for it -- callers that should be
    preemptable (e.g. background checkpoint flushes) must move their
    bytes in pieces.
    """

    def __init__(
        self,
        engine: Engine,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ) -> None:
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"latency must be >= 0, got {latency}")
        self.engine = engine
        self.bandwidth = float(bandwidth)  # bytes / second
        self.latency = float(latency)  # seconds per transfer
        self.name = name or "pipe"
        self.bytes_moved = 0.0
        self.busy_time = 0.0
        #: 1 while a hold has the pipe, else 0
        self.in_use = 0
        self._waiters: deque[Callable[[Any], None]] = deque()

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` (excludes queueing)."""
        return self.latency + float(nbytes) / self.bandwidth

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the pipe has been busy up to ``horizon``
        (defaults to the current simulated time)."""
        t = horizon if horizon is not None else self.engine.now
        if t <= 0:
            return 0.0
        return min(1.0, self.busy_time / t)

    # -- the lock ----------------------------------------------------------
    # A PipeHold grants and hands the pipe on inline; these two are what
    # its cancel() calls.

    def release(self) -> None:
        if not self.in_use:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # hand the pipe straight to the next waiter (still in use)
            self.engine.call_soon(self._waiters.popleft())
        else:
            self.in_use = 0

    def withdraw(self, fn: Callable[[Any], None]) -> None:
        """Take a waiter out of the queue (a no-op once it was granted:
        giving the pipe back is then up to whoever receives the grant)."""
        try:
            self._waiters.remove(fn)
        except ValueError:
            pass


#: one piece of a :class:`PipeHold`: ``(first, second, hold, nbytes)``
Piece = Tuple[BandwidthPipe, Optional[BandwidthPipe], float, float]

_WAIT_FIRST, _WAIT_SECOND, _HOLDING, _OVER = range(4)


class PipeHold:
    """Move ``pieces`` one after another, then call ``done(arg)``.

    Each piece occupies ``first`` -- and ``second``, unless ``None`` --
    for ``hold`` seconds moving ``nbytes``: lock ``first``, then
    ``second`` (callers pass them in their global lock order), charge
    both pipes, sleep, release in reverse order, and only then take the
    next piece, so that whatever queued on a pipe meanwhile goes first.
    ``pieces`` is read lazily: a piece's pipes may be picked as it
    starts.  With no pieces ``done`` runs at once.  Each step is an
    engine callback at the position the corresponding event of a
    ``yield``-ing process would have had, with no process and no event.

    The hold takes each pipe's lock itself: a free pipe is marked in use
    and the next step goes on the engine's ready queue (the entry
    ``call_soon`` makes), a busy one gets the step in its waiter FIFO,
    and a finished piece hands each pipe to its first waiter the same
    way.  Steps are bound afresh each time, never kept on the hold: a
    hold that named its own methods would be a reference cycle.
    """

    __slots__ = ("first", "second", "hold", "nbytes", "_pieces", "_done",
                 "_arg", "_state")

    def __init__(
        self,
        pieces: Iterable[Piece],
        done: Callable[[Any], None],
        arg: Any = None,
    ) -> None:
        self._pieces = iter(pieces)
        self._done = done
        self._arg = arg
        self._next()

    def _next(self) -> None:
        piece = next(self._pieces, None)
        if piece is None:
            self._state = _OVER
            self._done(self._arg)
            return
        first, self.second, self.hold, nbytes = piece
        self.first = first
        self.nbytes = float(nbytes)
        self._state = _WAIT_FIRST
        if first.in_use:
            first._waiters.append(self._got_first)
        else:
            first.in_use = 1
            first.engine._ready.append((self._got_first, None))

    def _got_first(self, _: Any) -> None:
        second = self.second
        if self._state == _OVER:  # cancelled while the grant was on its way
            self.first.release()
        elif second is None:
            self._occupy(None)
        else:
            self._state = _WAIT_SECOND
            if second.in_use:
                second._waiters.append(self._occupy)
            else:
                second.in_use = 1
                second.engine._ready.append((self._occupy, None))

    def _occupy(self, _: Any) -> None:
        if self._state == _OVER:
            self.second.release()
            return
        self._state = _HOLDING
        hold = self.hold
        first = self.first
        first.busy_time += hold
        first.bytes_moved += self.nbytes
        second = self.second
        if second is not None:
            second.busy_time += hold
            second.bytes_moved += self.nbytes
        first.engine.call_later(hold, self._finish)

    def _finish(self, _: Any) -> None:
        if self._state == _HOLDING:  # else: cancelled, pipes already back
            self._state = _OVER
            # BandwidthPipe.release inline, in reverse lock order: a pipe
            # with a waiter goes straight to it (and stays in use)
            second = self.second
            if second is not None:
                if second._waiters:
                    second.engine._ready.append(
                        (second._waiters.popleft(), None))
                else:
                    second.in_use = 0
            first = self.first
            if first._waiters:
                first.engine._ready.append((first._waiters.popleft(), None))
            else:
                first.in_use = 0
            self._next()

    def cancel(self) -> None:
        """Give back whatever is held or asked for, and move no further
        piece; no-op once finished."""
        state, self._state = self._state, _OVER
        if state == _HOLDING:
            if self.second is not None:
                self.second.release()
            self.first.release()
        elif state == _WAIT_SECOND:
            self.second.withdraw(self._occupy)
            self.first.release()
        elif state == _WAIT_FIRST:
            self.first.withdraw(self._got_first)


class _HoldDone(Event):
    """What a process inside :func:`hold_pipes` is blocked on; deadlock
    reports name it after whatever the hold itself is waiting for."""

    __slots__ = ("op",)

    @property
    def name(self) -> str:
        op = self.op
        pipe = {_WAIT_FIRST: op.first, _WAIT_SECOND: op.second}.get(op._state)
        return f"{pipe.name}:lock:request" if pipe else "timeout"

    def fire(self, _: Any) -> None:
        """Trigger *and* dispatch: the caller already runs at the
        position the waiter resumes at, so no further hop."""
        self._scheduled = True
        self._value = None
        self._dispatch()


def hold_pipes(
    engine: Engine, pieces: Iterable[Piece]
) -> Generator[Event, Any, None]:
    """Generator veneer over :class:`PipeHold` for callers that are
    processes (at least one piece); a killed caller gives the pipes back
    as it unwinds."""
    done = _HoldDone(engine)
    op = done.op = PipeHold(pieces, done.fire)
    try:
        yield done
    finally:
        op.cancel()
        done.op = None  # op._done is done.fire: the two name each other
