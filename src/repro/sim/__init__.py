"""Discrete-event cluster simulator.

This package is the substitute for the paper's physical testbed (a 100-node
Cray XC40 with a Lustre filesystem).  It provides:

- :mod:`repro.sim.engine` -- the deterministic event loop, processes
  (generator coroutines), events, timeouts, and combinators.
- :mod:`repro.sim.resources` -- bandwidth pipes and the pipe holds that
  move bytes through them: the contended hardware.
- :mod:`repro.sim.network` -- the interconnect model: per-node NICs, link
  latency/bandwidth, and message-transfer cost accounting.
- :mod:`repro.sim.filesystem` -- a Lustre-like parallel filesystem with a
  configurable (small) number of I/O servers that writes contend on.
- :mod:`repro.sim.node` / :mod:`repro.sim.cluster` -- node and cluster
  descriptions binding the above together.
- :mod:`repro.sim.failures` -- failure-injection plans (the paper kills one
  rank ~95% of the way between two checkpoints).
- :mod:`repro.sim.trace` -- structured event trace for post-run analysis.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    Timeout,
)
from repro.sim.resources import BandwidthPipe
from repro.sim.node import Node, NodeSpec
from repro.sim.network import Network, NetworkSpec
from repro.sim.filesystem import ParallelFileSystem, PFSSpec
from repro.sim.cluster import Cluster, ClusterSpec
from repro.sim.failures import (
    ExponentialFailures,
    FailurePlan,
    IterationFailure,
    NoFailures,
    RankKilledError,
    TimedFailure,
)
from repro.sim.trace import Trace, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "Timeout",
    "BandwidthPipe",
    "Node",
    "NodeSpec",
    "Network",
    "NetworkSpec",
    "ParallelFileSystem",
    "PFSSpec",
    "Cluster",
    "ClusterSpec",
    "ExponentialFailures",
    "FailurePlan",
    "IterationFailure",
    "NoFailures",
    "RankKilledError",
    "TimedFailure",
    "Trace",
    "TraceRecord",
]
