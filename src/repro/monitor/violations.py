"""Structured invariant violations.

A violation is evidence, not prose: besides the human-readable message it
carries the *causal chain* -- the trace records that put the protocol
state machine into the position where the offending record became
illegal, ending with the offending record itself.  Tests and the CLI
render the chain with :meth:`TraceRecord.brief`, so a report names the
exact records (by sequence number and simulated time) that prove the
protocol was broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.trace import TraceRecord
from repro.util.errors import ReproError


@dataclass(frozen=True)
class InvariantViolation:
    """One broken protocol invariant, with its evidence."""

    #: monitor class name that raised it (e.g. ``ULFMOrderMonitor``)
    monitor: str
    #: stable rule identifier (e.g. ``revoke-before-shrink``)
    rule: str
    #: human-readable statement of what went wrong
    message: str
    #: simulated time of the offending record
    time: float
    #: the records that establish the violation; the last entry is the
    #: offending record, earlier entries are the state it contradicts
    chain: Tuple[TraceRecord, ...] = field(default_factory=tuple)

    @property
    def offending(self) -> TraceRecord:
        return self.chain[-1]

    def render(self) -> str:
        lines = [f"[{self.monitor}] {self.rule}: {self.message}"]
        for rec in self.chain:
            lines.append(f"    {rec.brief()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "monitor": self.monitor,
            "rule": self.rule,
            "message": self.message,
            "time": self.time,
            "chain": [r.to_dict() for r in self.chain],
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "InvariantViolation":
        return cls(
            monitor=doc["monitor"], rule=doc["rule"],
            message=doc["message"], time=doc["time"],
            chain=tuple(TraceRecord.from_dict(r) for r in doc["chain"]),
        )


class InvariantViolationError(ReproError):
    """Raised by the harness under ``strict_monitor`` when a run breaks a
    protocol invariant."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = list(violations)
        head = self.violations[0]
        more = (
            f" (+{len(self.violations) - 1} more)"
            if len(self.violations) > 1 else ""
        )
        super().__init__(
            f"{len(self.violations)} protocol invariant violation(s); "
            f"first: {head.monitor}/{head.rule} at t={head.time:.6f}: "
            f"{head.message}{more}"
        )
