"""Contended-resource primitives for the cluster model.

Four primitives cover every piece of modelled hardware:

- :class:`Resource` -- a counted semaphore with a FIFO wait queue (CPU
  slots, PFS metadata server, ...).
- :class:`Store` -- an unbounded FIFO of items with blocking ``get``
  (message queues, VeloC server work queues).
- :class:`BandwidthPipe` -- a serializing link with latency + bandwidth;
  the building block for NICs and PFS I/O servers.  Large transfers should
  be chunked by the caller so that competing traffic can interleave (this
  is exactly how the VeloC server's asynchronous flushes delay application
  MPI messages in the paper's Figure 5 discussion).
- :class:`PipeHold` -- "occupy one or two pipes for a while", the single
  place lock requests nest; NIC-to-NIC messages, PFS reads/writes and
  burst-buffer drains are all this, as a callback chain or (for callers
  that are processes) behind the :func:`hold_pipes` generator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.engine import Engine, Event
from repro.util.errors import SimulationError


class Request(Event):
    """A pending or granted slot request of a :class:`Resource`.

    When its last waiter goes away before the grant was delivered (the
    process blocked on it is killed), the request withdraws itself, so
    the slot passes to the next live waiter instead of leaking.
    """

    __slots__ = ("_resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.engine, ("%s:request", resource.name))
        self._resource = resource

    def remove_callback(self, fn: Callable[[Event], None]) -> None:
        super().remove_callback(fn)
        if self._callbacks or self._processed:
            return
        if self._scheduled:  # granted, but nobody is left to hear of it
            self._resource.release()
        else:
            self._resource.withdraw(self)


class Resource:
    """Counted FIFO semaphore.

    Usage (inside a process generator)::

        yield from res.acquire()
        try:
            ...
        finally:
            res.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        #: requests and ``request_cb`` callbacks share one FIFO
        self._waiters: deque[Union[Request, Callable[[Any], None]]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        """Return an event that succeeds when a slot is granted."""
        ev = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def request_cb(self, fn: Callable[[Any], None]) -> None:
        """Callback form of :meth:`request`: ``fn(None)`` runs, one
        zero-delay hop after the grant, where the event's waiter would."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.engine.call_soon(fn)
        else:
            self._waiters.append(fn)

    def acquire(self) -> Generator[Event, Any, None]:
        """Generator helper: ``yield from res.acquire()``."""
        yield self.request()

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # Hand the slot directly to the next waiter (count unchanged).
            waiter = self._waiters.popleft()
            if waiter.__class__ is Request:
                waiter.succeed(None)
            else:
                self.engine.call_soon(waiter)
        else:
            self._in_use -= 1

    def withdraw(self, waiter: Union[Request, Callable[[Any], None]]) -> None:
        """Take a waiter out of the queue (a no-op once it was granted:
        giving the slot back is then up to whoever receives the grant)."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass


class Store:
    """Unbounded FIFO store with blocking ``get``.

    ``put`` never blocks.  Waiting getters are served in FIFO order and
    items are delivered in insertion order.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name or "store"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get_event(self) -> Event:
        ev = self.engine.event(name=f"{self.name}:get")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def get(self) -> Generator[Event, Any, Any]:
        """Generator helper: ``item = yield from store.get()``."""
        item = yield self.get_event()
        return item

    def drain(self) -> list[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items

    def fail_waiters(self, exc: BaseException) -> None:
        """Fail every blocked getter (used when tearing down a job)."""
        while self._getters:
            self._getters.popleft().fail(exc)


class BandwidthPipe:
    """A serializing link: one transfer at a time, cost = latency + n/bw.

    Models a NIC port or a PFS I/O server.  FIFO service means a message
    queued behind a large transfer waits for it -- callers that should be
    preemptable (e.g. background checkpoint flushes) must chunk their
    transfers.
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
        self._lock = Resource(engine, capacity=1, name=f"{self.name}:lock")
        self.bytes_moved = 0.0
        self.busy_time = 0.0

    def transfer_time(self, nbytes: float) -> float:
        """Pure service time for ``nbytes`` (excludes queueing)."""
        return self.latency + float(nbytes) / self.bandwidth

    def transfer(self, nbytes: float) -> Generator[Event, Any, float]:
        """Occupy the pipe for ``nbytes``; returns the completion time."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        yield from hold_pipes(self, None, self.transfer_time(nbytes), nbytes)
        return self.engine.now

    @property
    def queue_length(self) -> int:
        return self._lock.queue_length

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time the pipe has been busy up to ``horizon``
        (defaults to the current simulated time)."""
        t = horizon if horizon is not None else self.engine.now
        if t <= 0:
            return 0.0
        return min(1.0, self.busy_time / t)


_WAIT_FIRST, _WAIT_SECOND, _HOLDING, _OVER = range(4)


class PipeHold:
    """Occupy ``first`` -- and ``second``, unless ``None`` -- for ``hold``
    seconds moving ``nbytes``, then call ``done(arg)``.

    Lock ``first``, then ``second`` (callers pass them in their global
    lock order), charge both pipes, sleep, release in reverse order: each
    step is an engine callback at the position the corresponding event of
    a ``yield``-ing process would have had, with no process and no event.
    """

    __slots__ = ("first", "second", "hold", "nbytes", "_done", "_arg", "_state")

    def __init__(
        self,
        first: BandwidthPipe,
        second: Optional[BandwidthPipe],
        hold: float,
        nbytes: float,
        done: Callable[[Any], None],
        arg: Any = None,
    ) -> None:
        self.first = first
        self.second = second
        self.hold = hold
        self.nbytes = float(nbytes)
        self._done = done
        self._arg = arg
        self._state = _WAIT_FIRST
        first._lock.request_cb(self._got_first)

    def _got_first(self, _: Any) -> None:
        if self._state == _OVER:  # cancelled while the grant was on its way
            self.first._lock.release()
        elif self.second is None:
            self._occupy(None)
        else:
            self._state = _WAIT_SECOND
            self.second._lock.request_cb(self._occupy)

    def _occupy(self, _: Any) -> None:
        if self._state == _OVER:
            self.second._lock.release()
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
        if self._state == _HOLDING:  # else: cancelled, locks already back
            self._release()
            self._done(self._arg)

    def _release(self) -> None:
        self._state = _OVER
        if self.second is not None:
            self.second._lock.release()
        self.first._lock.release()

    def cancel(self) -> None:
        """Give back whatever is held or asked for; no-op once finished."""
        state, self._state = self._state, _OVER
        if state == _HOLDING:
            self._release()
        elif state == _WAIT_SECOND:
            self.second._lock.withdraw(self._occupy)
            self.first._lock.release()
        elif state == _WAIT_FIRST:
            self.first._lock.withdraw(self._got_first)


class _HoldDone(Event):
    """What a process inside :func:`hold_pipes` is blocked on; deadlock
    reports name it after whatever the hold itself is waiting for."""

    __slots__ = ("op",)

    @property
    def name(self) -> str:
        op = self.op
        pipe = {_WAIT_FIRST: op.first, _WAIT_SECOND: op.second}.get(op._state)
        return f"{pipe._lock.name}:request" if pipe else "timeout"

    def fire(self, _: Any) -> None:
        """Trigger *and* dispatch: the caller already runs at the
        position the waiter resumes at, so no further hop."""
        self._scheduled = True
        self._value = None
        self._dispatch()


def hold_pipes(
    first: BandwidthPipe,
    second: Optional[BandwidthPipe],
    hold: float,
    nbytes: float,
) -> Generator[Event, Any, None]:
    """Generator veneer over :class:`PipeHold` for callers that are
    processes; a killed caller gives the pipes back as it unwinds."""
    done = _HoldDone(first.engine)
    op = done.op = PipeHold(first, second, hold, nbytes, done.fire)
    try:
        yield done
    finally:
        op.cancel()
