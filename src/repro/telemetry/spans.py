"""Span-based tracing over simulated time.

A *span* is a named interval on a *source* track (``rank3``,
``veloc.server0``, ``engine``); an *instant* is a zero-duration marker.
Spans on the same source nest: the span open at entry time becomes the
parent, giving the parent/child causality the Chrome trace viewer renders
as stacked slices.  Spans opened across ``yield`` points in simulated
processes close at the simulated time the block exits -- including
unwinding through a failure (``FenixLongJump``, ``RankKilledError``),
in which case the span records the exception type as its ``error``.

A span's record *is* its context manager: ``tracer.span(...)`` builds one
slotted :class:`SpanRecord` and nothing else, ``__enter__`` gives it an
id, a start and a parent and pushes it on its source's stack, and
``__exit__`` pops and stamps it -- directly when it is the innermost open
span of its source and no exception is in flight (the case of all but a
handful of spans in a run), through :meth:`Tracer._close` otherwise,
which also closes every descendant a killed process never unwound.  A
span an ancestor closed *with an error* stays closed: when its own block
finally exits, its ``end`` and inherited ``error`` stand.  (A span that a
clean, out-of-order exit on a shared track closed early is still live: its
own exit re-stamps its ``end``.)

The tracer reads time from a bound *clock* (any object with a ``now``
attribute -- in practice :class:`repro.sim.engine.Engine`); nothing here
imports the simulator, so the lowest layers can import this package
without cycles.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional


class SpanRecord:
    """One interval (or instant, when ``end == start``) -- and, for a
    span, the context manager that opens and closes it.

    :meth:`Tracer.span` hands back an inert record; entering it allocates
    its id, reads the clock and pushes it on its source's stack, leaving
    pops it, stamps ``end`` and lets go of the tracer: the tracer lists
    the record, so a record that kept it would make a reference cycle (an
    instant is never given it).  Re-entrant use is not supported.
    """

    __slots__ = ("sid", "source", "name", "start", "end", "parent",
                 "fields", "error", "_tracer")

    def __init__(self, tracer: Optional["Tracer"], source: str, name: str,
                 fields: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.source = source
        self.name = name
        self.fields = fields
        self.sid = 0
        self.start = 0.0
        self.end: Optional[float] = None
        self.parent: Optional[int] = None
        self.error: Optional[str] = None

    def __enter__(self) -> "SpanRecord":
        tracer = self._tracer
        tracer._next_id = self.sid = tracer._next_id + 1
        self.start = tracer.now
        stack = tracer._stacks.get(self.source)
        if stack is None:
            stack = tracer._stacks[self.source] = []
        elif stack:
            self.parent = stack[-1].sid
        stack.append(self)
        tracer.spans.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        if tracer is None:  # left before: what it stamped then stands
            return None
        self._tracer = None
        stack = tracer._stacks.get(self.source)
        if exc_type is None and stack and stack[-1] is self:
            # the common case: innermost open span of its source
            stack.pop()
            self.end = tracer.now
        else:
            tracer._close(self, exc_type)
        return None  # never swallow

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def __repr__(self) -> str:
        return (f"SpanRecord(sid={self.sid}, source={self.source!r}, "
                f"name={self.name!r}, start={self.start}, end={self.end}, "
                f"parent={self.parent}, error={self.error!r})")


class _NullSpan:
    """Shared no-op context manager: the disabled-telemetry fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans and instants against a simulated clock."""

    def __init__(self, clock: Any = None) -> None:
        self._clock = clock
        self.spans: List[SpanRecord] = []
        self.instants: List[SpanRecord] = []
        self._stacks: Dict[str, List[SpanRecord]] = {}
        self._next_id = 0

    def bind(self, clock: Any) -> None:
        """Attach the clock (the engine); idempotent."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # -- recording ------------------------------------------------------

    def span(self, source: str, name: str, **fields: Any) -> SpanRecord:
        """Open a span on ``source`` for the duration of a ``with`` block."""
        return SpanRecord(self, source, name, fields)

    def instant(self, source: str, name: str, **fields: Any) -> SpanRecord:
        """Record a zero-duration marker, parented to the open span."""
        rec = SpanRecord(None, source, name, fields)
        self._next_id = rec.sid = self._next_id + 1
        rec.start = rec.end = self.now
        stack = self._stacks.get(source)
        if stack:
            rec.parent = stack[-1].sid
        self.instants.append(rec)
        return rec

    def _close(self, rec: SpanRecord, exc_type: Optional[type]) -> None:
        """The general close: stamp, record the error, unwind the stack."""
        if rec.end is not None and rec.error is not None:
            # an ancestor's failure already closed it, at the ancestor's
            # end: that end and the inherited error stand
            return
        rec.end = self.now
        if exc_type is not None:
            rec.error = exc_type.__name__
        stack = self._stacks.get(rec.source)
        # A killed process may leave descendants unclosed; closing a span
        # closes everything above it on its source's stack at this time.
        if stack and rec in stack:
            while stack:
                top = stack.pop()
                if top.end is None:
                    top.end = rec.end
                    top.error = top.error or rec.error
                if top is rec:
                    break

    # -- queries --------------------------------------------------------

    def open_spans(self, source: Optional[str] = None) -> List[SpanRecord]:
        if source is not None:
            return list(self._stacks.get(source, []))
        return [s for stack in self._stacks.values() for s in stack]

    def all_records(self) -> Iterator[SpanRecord]:
        yield from self.spans
        yield from self.instants

    def find(
        self,
        name: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[SpanRecord], bool]] = None,
    ) -> List[SpanRecord]:
        out = []
        for rec in self.all_records():
            if name is not None and rec.name != name:
                continue
            if source is not None and rec.source != source:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def first(self, name: str, source: Optional[str] = None) -> Optional[SpanRecord]:
        hits = self.find(name=name, source=source)
        return min(hits, key=lambda r: (r.start, r.sid)) if hits else None

    def sources(self) -> List[str]:
        return sorted({r.source for r in self.all_records()})

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._stacks.clear()

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)
