"""Monitor framework: streaming per-rank protocol state machines.

A :class:`ProtocolMonitor` consumes :class:`~repro.sim.trace.TraceRecord`
rows one at a time (online, via :meth:`~repro.sim.trace.Trace.subscribe`,
or offline by replaying a recorded trace) and accumulates
:class:`~repro.monitor.violations.InvariantViolation` findings.  Monitors
never raise from the feed path -- a broken protocol must not change the
run it is observing; the harness consults :meth:`MonitorSuite.violations`
after the engine drains and fails the run there when strict.
"""

from __future__ import annotations

from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.monitor.violations import InvariantViolation
from repro.sim.trace import TraceListener, TraceRecord
from repro.vocabulary import ATTEMPT_WORLD


class ProtocolMonitor:
    """Base class: one invariant family, one state machine."""

    #: the record kinds :meth:`feed` acts on -- the suite hands a monitor
    #: no other record; None (the default) asks for every record
    KINDS: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self.begin_world()

    def begin_world(self) -> None:
        """(Re)initialise what is scoped to one MPI world -- dead ranks,
        roles, communicators, process memory.  Called at construction and
        again by the suite at every relaunch; history that outlives a
        world (what reached the PFS) belongs in ``__init__``."""

    def feed(self, rec: TraceRecord) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> None:
        """Called once after the stream ends (end-of-run checks)."""

    def violate(self, rule: str, message: str,
                chain: Iterable[TraceRecord]) -> None:
        chain = tuple(chain)
        self.violations.append(InvariantViolation(
            monitor=type(self).__name__,
            rule=rule,
            message=message,
            time=chain[-1].time if chain else 0.0,
            chain=chain,
        ))


def _begin_worlds(monitors: Tuple[ProtocolMonitor, ...],
                  rec: TraceRecord) -> None:
    if ATTEMPT_WORLD in rec.source:  # the world of a (re)launch
        for mon in monitors:
            mon.begin_world()


class MonitorSuite(TraceListener):
    """A set of monitors sharing one record stream.

    Attach to a live :class:`Trace` with :meth:`attach` (online checking
    while the simulation runs) or push a recorded stream through
    :meth:`replay`.  Either way, call :meth:`finish` once the stream is
    complete, then read :attr:`violations`.
    """

    def __init__(self, monitors: Optional[Iterable[ProtocolMonitor]] = None) -> None:
        if monitors is None:
            from repro.monitor.monitors import standard_monitors
            monitors = standard_monitors()
        #: a tuple: the dispatch table below is built from it once
        self.monitors = monitors = tuple(monitors)
        #: kind -> the feeds consuming it, in suite order, built once;
        #: kinds nobody declared go to the monitors that want everything
        declared = set().union(*(m.KINDS or () for m in monitors))
        self._feeds_of: Dict[str, Tuple[Callable, ...]] = {
            kind: tuple(m.feed for m in monitors
                        if m.KINDS is None or kind in m.KINDS)
            for kind in declared
        }
        self._feeds_of_any = tuple(
            m.feed for m in monitors if m.KINDS is None)
        # a relaunched job is a new protocol instance: noticed here, once,
        # ahead of whoever consumes the record that announces it (a
        # function of the monitors, not a bound method: the table would
        # hold the suite that holds the table)
        self._feeds_of["comm_create"] = (partial(_begin_worlds, monitors),) + (
            self._feeds_of.get("comm_create", self._feeds_of_any))
        self._finished = False
        #: ``(count, (first, last))`` of ring-buffer evictions, recorded at
        #: finish() so reports can say what the monitors never saw
        self.dropped: int = 0
        self.dropped_window: Optional[Tuple[float, float]] = None
        #: final lines of a replayed trace file that a writer left cut
        #: short (the record it was writing is not in the stream)
        self.torn: int = 0

    # -- streaming ---------------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        for feed in self._feeds_of.get(rec.kind, self._feeds_of_any):
            feed(rec)

    def finish(self) -> None:
        """End-of-stream: run final checks and capture drop accounting."""
        if self._finished:
            return
        self._finished = True
        if self._trace is not None:
            self.dropped = self._trace.dropped
            self.dropped_window = self._trace.dropped_window
            self.detach()
        for mon in self.monitors:
            mon.finish()

    # -- results ------------------------------------------------------------

    @property
    def violations(self) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for mon in self.monitors:
            out.extend(mon.violations)
        out.sort(key=lambda v: (v.time, v.monitor, v.rule))
        return out

    def note_dropped(self, count: int,
                     window: Optional[Tuple[float, float]],
                     torn: int = 0) -> None:
        """Record drop accounting for replays of truncated trace files."""
        self.dropped = count
        self.dropped_window = window
        self.torn = torn

    def report(self) -> str:
        lines: List[str] = []
        if self.dropped:
            lo, hi = self.dropped_window or (float("nan"), float("nan"))
            lines.append(
                f"WARNING: trace ring buffer dropped {self.dropped} "
                f"record(s) in t=[{lo:.6f}, {hi:.6f}]; monitors did not "
                "see that window"
            )
        if self.torn:
            lines.append(
                f"WARNING: trace file ends in {self.torn} torn line(s); "
                "monitors did not see the record being written there"
            )
        violations = self.violations
        if not violations:
            lines.append("no invariant violations")
        else:
            lines.append(f"{len(violations)} invariant violation(s):")
            for v in violations:
                lines.append(v.render())
        return "\n".join(lines)

    def to_dict(self) -> Any:
        return {
            "dropped": self.dropped,
            "dropped_window": list(self.dropped_window)
            if self.dropped_window else None,
            "torn": self.torn,
            "violations": [v.to_dict() for v in self.violations],
        }
