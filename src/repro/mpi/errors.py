"""MPI / ULFM error classes.

ULFM reports process failure through error codes at MPI call sites
(``MPI_ERR_PROC_FAILED``, ``MPI_ERR_REVOKED``); here they are exceptions,
which is also how the paper's Fenix layer consumes them (its error handler
long-jumps out of the failing call).
"""

from __future__ import annotations

from typing import FrozenSet

from repro.util.errors import ReproError


class MPIError(ReproError):
    """Base class for simulated-MPI failures."""


class ProcFailedError(MPIError):
    """MPI_ERR_PROC_FAILED: a peer involved in this operation is dead.

    Attributes:
        ranks: the communicator-local ranks known dead at raise time.
    """

    def __init__(self, ranks: "FrozenSet[int] | set[int]", detail: str = "") -> None:
        self.ranks = frozenset(ranks)
        which = ",".join(str(r) for r in sorted(self.ranks))
        super().__init__(
            f"process failure involving rank(s) {{{which}}}"
            + (f": {detail}" if detail else "")
        )


class RevokedError(MPIError):
    """MPI_ERR_REVOKED: the communicator was revoked (ULFM MPI_Comm_revoke)."""

    def __init__(self, comm_name: str = "") -> None:
        super().__init__(f"communicator {comm_name or '?'} has been revoked")
