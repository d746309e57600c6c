"""repro.monitor: online protocol-invariant monitors and post-mortem
tooling over the trace stream.

The monitors make docs/PROTOCOLS.md executable: streaming state machines
subscribe to :class:`repro.sim.trace.Trace` and check the cross-layer
recovery protocol (ULFM ordering, Fenix role legality and repair-gate
completeness, VeloC version/flush discipline, IMR buddy consistency)
while the simulation runs.  The harness enforces them under
``strict_monitor``; the CLI
(``python -m repro.monitor``) replays recorded traces, reconstructs
protocol state at a point in time, and explains one failure's recovery
path end to end.

This package intentionally imports only the trace layer at module scope
so the harness (and the CLI's offline subcommands) can use it without
pulling in applications or experiments.
"""

from repro.monitor.base import MonitorSuite, ProtocolMonitor
from repro.monitor.monitors import (
    BuddyMonitor,
    FlushMonitor,
    RepairGateMonitor,
    RoleTransitionMonitor,
    ULFMOrderMonitor,
    VersionMonitor,
    standard_monitors,
)
from repro.monitor.violations import InvariantViolation, InvariantViolationError

__all__ = [
    "BuddyMonitor",
    "FlushMonitor",
    "InvariantViolation",
    "InvariantViolationError",
    "MonitorSuite",
    "ProtocolMonitor",
    "RepairGateMonitor",
    "RoleTransitionMonitor",
    "ULFMOrderMonitor",
    "VersionMonitor",
    "standard_monitors",
]
