"""Deterministic discrete-event engine.

The engine runs *processes* -- plain Python generators -- against a
simulated clock.  A process blocks by yielding an :class:`Event` (or an
object convertible to one, such as :class:`Timeout` or another
:class:`Process`); the engine resumes it when the event triggers, sending
the event's value into the generator (or throwing the event's exception).

Determinism guarantees:

- Events scheduled for the same simulated time fire in schedule order
  (a monotonically increasing sequence number breaks ties); zero-delay
  work takes a FIFO shortcut past the heap that keeps exactly that
  order (see :class:`Engine`).
- No wall-clock access anywhere; all randomness flows through seeded
  :class:`numpy.random.Generator` streams owned by components.

This is deliberately SimPy-like in shape but self-contained (the execution
environment provides no simulation library) and adds the hooks the MPI/ULFM
layer needs: process kill with a typed exception, unhandled-failure
tracking, and deadlock detection that names the blocked processes.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

from repro.telemetry.collector import NULL_TELEMETRY
from repro.util.errors import DeadlockError, SimulationError

_UNSET = object()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.kill` or an event failure."""


class ProcessKilled(Interrupt):
    """A process was killed externally (e.g. simulated rank death)."""


class Event:
    """One-shot event: triggers exactly once, with a value or an exception.

    Callbacks registered via :meth:`add_callback` run (in registration
    order) when the engine *processes* the trigger, at the simulated time
    the trigger was scheduled for.
    """

    __slots__ = (
        "engine",
        "_value",
        "_exc",
        "_callbacks",
        "_scheduled",
        "_processed",
        "_pooled",
        "_name",
    )

    def __init__(self, engine: "Engine", name: Union[str, tuple] = "") -> None:
        self.engine = engine
        #: a string, or a ``(fmt, *args)`` tuple formatted on first use:
        #: hot paths name tens of thousands of events nobody ever prints
        self._name = name
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._callbacks: list[Callable[["Event"], None]] = []
        self._scheduled = False
        self._processed = False
        self._pooled = False

    # -- state ---------------------------------------------------------

    @property
    def name(self) -> str:
        name = self._name
        if name.__class__ is tuple:
            name = self._name = name[0] % name[1:]
        return name

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._scheduled

    @property
    def processed(self) -> bool:
        """True once the engine has dispatched the trigger (i.e. the
        event's simulated completion time has been reached)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return self._scheduled and self._exc is None

    @property
    def value(self) -> Any:
        if not self._scheduled:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger successfully after ``delay`` simulated seconds."""
        if self._scheduled:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._scheduled = True
        self._value = value
        if delay:
            self.engine.call_later(delay, _dispatch, self)
        else:
            self.engine._ready.append((_dispatch, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger with an exception after ``delay`` simulated seconds."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._scheduled:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._scheduled = True
        self._exc = exc
        self.engine.call_later(delay, _dispatch, self)
        return self

    # -- subscription ----------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        Subscribing to an event that was already processed schedules an
        immediate (zero-delay) call of just this callback, so late
        subscribers never hang.
        """
        if self._processed:
            self.engine._ready.append((fn, self))
            return
        self._callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        try:
            self._callbacks.remove(fn)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        self._processed = True
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for fn in callbacks:
                fn(self)
        if self._pooled:
            self.engine._recycle_timeout(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._scheduled:
            state = "ok" if self._exc is None else f"failed({self._exc!r})"
        return f"<Event {self.name!r} {state}>"


#: what the engine queues hold for a triggered event: ``_dispatch(event)``
_dispatch = Event._dispatch


class _Start:
    """What a new process is resumed with: ``send(None)``."""

    __slots__ = ()
    _exc = _value = None


_START = _Start()


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation.

    Instances handed out by :meth:`Engine.timeout` are *pooled*: once
    processed, they may be recycled for a later ``engine.timeout()``
    call.  Hold a directly-constructed ``Timeout(engine, delay)`` (or
    any named event) instead if state must be inspected after the
    trigger has been processed.  Combinators (:class:`AllOf` /
    :class:`AnyOf`) pin their children, so grouping pooled timeouts
    stays safe.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(engine, name="timeout")
        self.delay = delay
        self.succeed(value, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout {self.delay:g}s {'done' if self._processed else 'pending'}>"


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Fails with the first child failure (remaining children are ignored).
    Value is the list of child values in input order.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="all_of")
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._children:
            # pin: child values are read after their dispatch, so pooled
            # timeouts must not be recycled out from under the combinator
            ev._pooled = False
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            _unsubscribe(self._children, self._on_child)
            self.fail(ev.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Triggers with (index, value) of the first child to trigger.

    A child failure fails the combinator if it arrives first.
    """

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for ev in self._children:
            ev._pooled = False
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        _unsubscribe(self._children, self._on_child)
        if ev.ok:
            self.succeed((self._children.index(ev), ev._value))
        else:
            self.fail(ev.exception)


def _unsubscribe(children: list, callback: Callable[[Event], None]) -> None:
    """A combinator that has triggered leaves the children that have not:
    each would otherwise hold it, and through it each other, until it
    fires -- for ever, for an event nobody triggers."""
    for ev in children:
        ev.remove_callback(callback)


class Process(Event):
    """A running generator coroutine.  Doubles as its own completion event.

    The generator may ``yield`` any :class:`Event`; the process resumes when
    that event triggers.  Returning completes the process successfully with
    the return value; an uncaught exception completes it as failed.
    """

    __slots__ = ("_gen", "_target", "_resume_cb")

    def __init__(
        self,
        engine: "Engine",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(engine, name=name or getattr(gen, "__name__", "process"))
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {type(gen)!r}")
        self._gen = gen
        self._target: Optional[Event] = None
        self._resume_cb = self._resume
        engine._alive.add(self)
        # Kick off at the current time, after already-queued events.
        engine._ready.append((self._resume_cb, _START))

    @property
    def alive(self) -> bool:
        return not self.triggered

    def kill(self, exc: Optional[BaseException] = None) -> None:
        """Terminate the process by throwing ``exc`` into its generator.

        If the process is blocked, it is detached from its target event and
        resumed immediately (at the current simulated time).  Killing a
        finished process is a no-op.
        """
        if self.triggered:
            return
        exc = exc if exc is not None else ProcessKilled(f"{self.name} killed")
        tel = self.engine.telemetry
        if tel.enabled:
            tel.instant("engine", "process_kill", process=self.name,
                        error=type(exc).__name__)
        if self._target is not None:
            self._target.remove_callback(self._resume_cb)
            self._target = None
        wake = Event(self.engine, name=("kill:%s", self.name))
        wake.add_callback(self._resume_cb)
        wake.fail(exc)

    # -- internal -------------------------------------------------------

    def _resume(self, ev: Event) -> None:
        # A failure thrown in -- caught in there or not -- loses its
        # traceback once the throw is over: the frames are where the
        # process waited, and their locals hold the event carrying it, so
        # keeping them would make every delivered failure a reference
        # cycle.  A failure the process's own code raised keeps its own.
        if self.triggered:
            return
        self._target = None
        thrown = ev._exc
        try:
            if thrown is None:
                nxt = self._gen.send(ev._value)
            else:
                nxt = self._gen.throw(thrown)
                thrown.__traceback__ = None
        except StopIteration as stop:
            if thrown is not None:
                thrown.__traceback__ = None
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - process death is data here
            if thrown is not None:
                thrown.__traceback__ = None
            self._finish(_UNSET, exc)
            return
        if not isinstance(nxt, Event):
            self._gen.close()
            self._finish(
                _UNSET,
                SimulationError(
                    f"process {self.name!r} yielded non-event {nxt!r}"
                ),
            )
            return
        if nxt.engine is not self.engine:
            self._gen.close()
            self._finish(
                _UNSET, SimulationError("yielded event belongs to another engine")
            )
            return
        self._target = nxt
        nxt.add_callback(self._resume_cb)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        # nothing resumes a finished process: its cached bound method, a
        # reference to itself, goes
        self._resume_cb = None
        self.engine._alive.discard(self)
        if exc is None:
            self.succeed(value)
        else:
            # A failure is "handled" when someone is observing the process
            # (a joiner or a watcher callback, e.g. the MPI world's rank
            # monitor).  Only orphaned failures abort the run.
            if not self._callbacks:
                self.engine._note_failure(self, exc)
            self.fail(exc)


class Engine:
    """The event loop: owns the simulated clock and the pending work.

    Work is ``fn(arg)`` callbacks, run in ``(time, seq)`` order.  Future
    work sits in a heap under that key.  Zero-delay work -- most of what
    a message costs -- sits in a FIFO *ready queue* instead: every heap
    entry of the current instant was scheduled before the clock got
    there, hence before anything now ready, so "the instant's heap
    entries, then the ready queue in schedule order, then advance" is
    the same order without a heap push, a pop or a sequence number.
    """

    #: recycled Timeout instances kept per engine (bounds memory pinned
    #: by bursts of simultaneous timers)
    _POOL_MAX = 256

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._ready: deque[tuple[Callable[[Any], None], Any]] = deque()
        self._seq = 0
        self._alive: set[Process] = set()
        self._failures: dict[Process, BaseException] = {}
        self._timeout_pool: list[Timeout] = []
        #: observability hooks; the shared disabled instance unless the
        #: owning cluster installs a live one (zero-cost when disabled)
        self.telemetry = NULL_TELEMETRY

    # -- construction helpers -------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pooled timeout: the hot sleep path of every simulated rank.

        Recycles already-processed instances to avoid the allocation and
        naming cost of :class:`Timeout` construction (see its docstring
        for the pooling contract).
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout: {delay}")
            ev = pool.pop()
            ev._value = value
            ev._exc = None
            ev._scheduled = True
            ev._processed = False
            ev.delay = delay
            when = self.now + delay
            if when > self.now:  # call_later, inlined
                self._seq += 1
                heappush(self._heap, (when, self._seq, _dispatch, ev))
            else:
                self._ready.append((_dispatch, ev))
            return ev
        ev = Timeout(self, delay, value)
        ev._pooled = True
        return ev

    def process(
        self, gen: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current instant, after everything
        already scheduled for it (the zero-delay hop, without an event)."""
        self._ready.append((fn, arg))

    def call_later(
        self, delay: float, fn: Callable[[Any], None], arg: Any = None
    ) -> None:
        """Run ``fn(arg)`` after ``delay`` simulated seconds."""
        when = self.now + delay
        if when > self.now:
            self._seq += 1
            heappush(self._heap, (when, self._seq, fn, arg))
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        else:
            # zero (or absorbed by float rounding): the ready queue, so the
            # heap never gains an entry for an instant already reached
            self._ready.append((fn, arg))

    def _recycle_timeout(self, ev: Timeout) -> None:
        if len(self._timeout_pool) < self._POOL_MAX:
            self._timeout_pool.append(ev)

    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        self._failures[proc] = exc

    def close(self) -> None:
        """End of the job this engine ran: drop what still points back at
        the engine -- the timeout pool, the telemetry hook (whose tracer
        reads this clock) -- so that what is left of the job is freed by
        reference counting.  A run that ended has no process left blocked
        to detach: that would have been a deadlock."""
        self._timeout_pool.clear()
        self.telemetry = NULL_TELEMETRY

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Run until no work is left (or simulated time passes ``until``).

        Returns the final simulated time.  Raises:

        - the first *unhandled* process failure, if any process died with an
          exception nobody consumed;
        - :class:`DeadlockError` when processes remain blocked with
          nothing left to wake them.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}"
            )
        # hot loop: localize the queues; an unbounded run never stops early
        heap = self._heap
        ready = self._ready
        next_ready = ready.popleft
        horizon = float("inf") if until is None else until
        now = self.now
        while True:
            if ready:
                # what the heap still holds of this instant was scheduled
                # before the clock got here, so before anything now ready;
                # neither loop can add to it (see call_later)
                while heap and heap[0][0] <= now:
                    _, _, fn, arg = heappop(heap)
                    fn(arg)
                while ready:
                    fn, arg = next_ready()
                    fn(arg)
            if not heap:
                break
            entry = heappop(heap)
            now = entry[0]
            if now > horizon:
                heappush(heap, entry)  # once per bounded run: not its turn
                self.now = until
                break
            self.now = now
            entry[2](entry[3])
        if self._failures:
            proc, exc = next(iter(self._failures.items()))
            raise SimulationError(
                f"process {proc.name!r} died with unhandled {type(exc).__name__}: {exc}"
            ) from exc
        if check_deadlock and until is None and self._alive:
            # message assembly is deferred to DeadlockError.__str__
            raise DeadlockError(
                blocked=[
                    (p.name, p._target.name if p._target is not None else "?")
                    for p in self._alive
                ]
            )
        return self.now
