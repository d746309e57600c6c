"""Structured event tracing.

Components append :class:`TraceRecord` rows (simulated time, source,
kind, free-form fields); experiments and tests query them to assert
protocol-level facts ("the VeloC server flushed after the checkpoint call
returned", "revoke reached every rank") without coupling to internals.

Two consumers shaped this module's API:

- **post-mortem queries** (``records``/``first``/``last``/``count``/
  ``kinds``) scan the records held -- tests ask them of small traces;
  the monitors and the tooling subscribe or iterate instead;
- **online monitors** (:mod:`repro.monitor`) subscribe with
  :meth:`Trace.subscribe` and see every record the moment it is emitted,
  which lets protocol invariants fail a run *while it executes* instead
  of after the fact; :class:`TraceListener` is the attach / detach /
  replay scaffold every such observer shares.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TraceRecord:
    time: float
    source: str
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)
    #: emission sequence number, assigned by the owning Trace (-1 for
    #: records built by hand); names the record in invariant reports
    seq: int = -1

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def to_dict(self) -> Dict[str, Any]:
        """The record's JSON object (trace files, violation chains);
        ``fields`` is shared, not copied -- sinks encode it at once."""
        return {"seq": self.seq, "time": self.time, "source": self.source,
                "kind": self.kind, "fields": self.fields}

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict`; raises ``KeyError`` /
        ``TypeError`` / ``ValueError`` on a malformed object."""
        return cls(time=float(obj["time"]), source=str(obj["source"]),
                   kind=str(obj["kind"]), fields=dict(obj.get("fields", {})),
                   seq=int(obj.get("seq", -1)))

    def brief(self) -> str:
        """Compact one-line rendering, used in violation causal chains."""
        parts = [f"{k}={v}" for k, v in self.fields.items()]
        detail = f" {' '.join(parts)}" if parts else ""
        return f"#{self.seq} t={self.time:.6f} {self.source} {self.kind}{detail}"


class Trace:
    """Append-only trace with query helpers and live subscriptions.

    ``max_records`` switches on ring-buffer mode: the trace keeps only
    the newest N records and counts evictions in :attr:`dropped`, so
    long failure campaigns cannot grow memory without bound.  The
    default stays unbounded (tests assert on complete histories).
    When records have been dropped, :attr:`dropped_window` reports the
    simulated-time bounds of the evicted region so consumers (monitors,
    exporters) can say *what they did not see* instead of silently
    presenting a truncated view.
    """

    def __init__(self, enabled: bool = True,
                 max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records < 1:
            raise ConfigError(f"max_records must be >= 1, got {max_records}")
        self.enabled = enabled
        self.max_records = max_records
        self._records: Deque[TraceRecord] = deque(maxlen=max_records)
        #: records evicted by the ring buffer since the last clear()
        self.dropped = 0
        #: simulated-time span [first, last] of evicted records
        self._dropped_first: Optional[float] = None
        self._dropped_last: Optional[float] = None
        self._seq = 0
        #: a tuple, replaced on (un)subscribe, so emit() iterates a
        #: stable snapshot without copying per record
        self._listeners: Tuple[Callable[[TraceRecord], None], ...] = ()
        #: listener exceptions swallowed by emit() (satellite of the
        #: observer-must-not-kill-the-run rule); the harness surfaces a
        #: warning in the RunReport when nonzero
        self.listener_errors = 0
        self.last_listener_error: Optional[str] = None

    # -- subscriptions ---------------------------------------------------

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked synchronously on every emit.

        This is the online-monitoring hook: :class:`repro.monitor`
        state machines attach here to check invariants as the run
        executes.  Listeners must not raise for flow control; they
        collect findings and report at the end.  A listener that does
        raise is isolated -- the exception is swallowed, counted in
        :attr:`listener_errors`, and surfaced as a harness warning --
        so a broken observer can never alter the run it observes."""
        self._listeners += (listener,)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        listeners = list(self._listeners)
        if listener in listeners:
            listeners.remove(listener)
            self._listeners = tuple(listeners)

    # -- recording -------------------------------------------------------

    def emit(self, time: float, source: str, kind: str,
             **fields: Any) -> Optional[TraceRecord]:
        if not self.enabled:
            return None
        if (self.max_records is not None
                and len(self._records) == self.max_records):
            evicted = self._records[0]
            self.dropped += 1
            if self._dropped_first is None:
                self._dropped_first = evicted.time
            self._dropped_last = evicted.time
        self._seq += 1
        rec = TraceRecord(time, source, kind, fields, seq=self._seq)
        self._records.append(rec)
        # a listener that raises must not propagate into the simulated
        # process that happened to emit the record -- observers observe,
        # they never alter the run.  Failures are counted and surfaced
        # as a RunReport warning by the harness.
        for listener in self._listeners:
            try:
                listener(rec)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.listener_errors += 1
                self.last_listener_error = (
                    f"{type(exc).__name__}: {exc} "
                    f"(listener {getattr(listener, '__qualname__', listener)!r}"
                    f" on record {rec.brief()})"
                )
        return rec

    @property
    def dropped_window(self) -> Optional[Tuple[float, float]]:
        """``(first, last)`` simulated times of evicted records, or
        ``None`` when nothing has been dropped."""
        if self.dropped == 0 or self._dropped_first is None:
            return None
        return (self._dropped_first, self._dropped_last)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        out = []
        for rec in self._records:
            if kind is not None and rec.kind != kind:
                continue
            if source is not None and rec.source != source:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def first(self, kind: str) -> Optional[TraceRecord]:
        return next((r for r in self._records if r.kind == kind), None)

    def last(self, kind: str) -> Optional[TraceRecord]:
        return next((r for r in reversed(self._records) if r.kind == kind),
                    None)

    def count(self, kind: str) -> int:
        return sum(1 for r in self._records if r.kind == kind)

    def kinds(self) -> List[str]:
        """Event kinds currently held (sorted)."""
        return sorted({r.kind for r in self._records})

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
        self._dropped_first = None
        self._dropped_last = None
        self.listener_errors = 0
        self.last_listener_error = None


class TraceListener:
    """The one way to put a ``feed(rec)`` on a record stream: a live
    :class:`Trace` is joined with :meth:`attach` and left with
    :meth:`detach`, a recorded stream goes through :meth:`replay`.
    Monitors, live series, SLO sessions and the streaming sink are this
    plus their own ``feed``."""

    #: the trace attached to (subclasses read its drop accounting);
    #: None while only replaying
    _trace: Optional[Trace] = None

    def feed(self, rec: TraceRecord) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def attach(self, trace: Trace) -> "TraceListener":
        """Subscribe to a live trace; the records it already holds are
        fed first, so attaching mid-run blinds nobody."""
        self._trace = trace
        for rec in trace:
            self.feed(rec)
        trace.subscribe(self.feed)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(self.feed)

    def replay(self, records: Iterable[TraceRecord]) -> "TraceListener":
        for rec in records:
            self.feed(rec)
        return self
