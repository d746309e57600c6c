"""The span oracle: the tracer as it stood when a handle wrapped each record.

``SpanRecord`` (a dataclass), ``_SpanHandle`` and the recording half of
``Tracer`` of the parent commit, bodies verbatim: six Python calls and
three objects per span where the real tracer now makes the record its own
context manager.  Same ids, same parents, same order, same times -- the
differential test in ``test_spans.py`` runs a seeded killed job on both
and compares every span.

One behaviour is *not* kept by the real tracer, on purpose: this
``_close`` stamps ``rec.end`` before it looks at the stack, so a span an
ancestor already closed moves its own ``end`` later when its block
finally exits (see ``test_span_closed_by_its_ancestor_keeps_that_end``).

:class:`ReferenceTelemetry` is a :class:`Telemetry` whose spans and
instants go through the oracle, so a whole job can run on it.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.telemetry.collector import Telemetry
from repro.telemetry.spans import NULL_SPAN, Tracer


@dataclass
class ReferenceSpanRecord:
    """One closed-over interval (or instant, when ``end == start``)."""

    sid: int
    source: str
    name: str
    start: float
    end: Optional[float] = None
    parent: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]


class _SpanHandle:
    """Context manager for one span; re-entrant use is not supported."""

    __slots__ = ("_tracer", "_source", "_name", "_fields", "record")

    def __init__(self, tracer: "ReferenceTracer", source: str, name: str,
                 fields: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._source = source
        self._name = name
        self._fields = fields
        self.record: Optional[ReferenceSpanRecord] = None

    def __enter__(self) -> ReferenceSpanRecord:
        self.record = self._tracer._open(self._source, self._name, self._fields)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.record, exc_type)
        return None  # never swallow


class ReferenceTracer(Tracer):
    """The parent's recording half; clock and queries are the real ones."""

    def span(self, source: str, name: str, **fields: Any) -> _SpanHandle:
        """Open a span on ``source`` for the duration of a ``with`` block."""
        return _SpanHandle(self, source, name, fields)

    def instant(self, source: str, name: str, **fields: Any) -> ReferenceSpanRecord:
        """Record a zero-duration marker, parented to the open span."""
        now = self.now
        rec = ReferenceSpanRecord(
            sid=self._alloc_id(),
            source=source,
            name=name,
            start=now,
            end=now,
            parent=self._parent_id(source),
            fields=fields,
        )
        self.instants.append(rec)
        return rec

    def _alloc_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _parent_id(self, source: str) -> Optional[int]:
        stack = self._stacks.get(source)
        return stack[-1].sid if stack else None

    def _open(self, source: str, name: str, fields: Dict[str, Any]) -> ReferenceSpanRecord:
        rec = ReferenceSpanRecord(
            sid=self._alloc_id(),
            source=source,
            name=name,
            start=self.now,
            parent=self._parent_id(source),
            fields=fields,
        )
        self.spans.append(rec)
        self._stacks.setdefault(source, []).append(rec)
        return rec

    def _close(self, rec: Optional[ReferenceSpanRecord], exc_type: Optional[type]) -> None:
        if rec is None:  # pragma: no cover - enter never ran
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


class ReferenceTelemetry(Telemetry):
    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled=enabled)
        self.tracer = ReferenceTracer()

    def span(self, source: str, name: str, **fields: Any):
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(source, name, **fields)
