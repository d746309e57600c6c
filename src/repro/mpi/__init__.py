"""Simulated MPI with ULFM fault-tolerance extensions.

This package is the Python stand-in for MPI + User Level Fault Mitigation
(the paper's process-recovery substrate, Section III).  It provides:

- :class:`World` -- a job of N ranks mapped onto cluster nodes, with rank
  lifecycle tracking and failure notification;
- :class:`Communicator` -- tagged point-to-point matching (exact source
  and tag, no wildcards) plus binomial-tree collectives, built entirely
  on the simulated network;
- :class:`CommHandle` -- the per-rank facade application code calls:
  ``send``/``recv``/``sendrecv``, ``allreduce``/``allgather``/``bcast``
  with the ``SUM`` and ``MIN`` reductions, and ULFM's ``revoke``/
  ``shrink``/``agree``;
- the :class:`ProcFailedError`/:class:`RevokedError` error classes that
  Fenix's recovery is driven by.

Semantics follow the ULFM specification where it matters to the paper:
failures are reported at MPI call sites as exceptions; ``revoke`` is an
asynchronous, communicator-wide poison that interrupts pending and future
operations; ``shrink`` and ``agree`` are collectives over the surviving
members and remain usable on a revoked communicator.
"""

from repro.mpi.errors import (
    MPIError,
    ProcFailedError,
    RevokedError,
)
from repro.mpi.ops import MIN, SUM, ReduceOp
from repro.mpi.comm import Communicator
from repro.mpi.handle import CommHandle
from repro.mpi.world import RankContext, World

__all__ = [
    "MPIError",
    "ProcFailedError",
    "RevokedError",
    "ReduceOp",
    "SUM",
    "MIN",
    "Communicator",
    "CommHandle",
    "RankContext",
    "World",
]
