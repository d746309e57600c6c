"""Fenix-managed communicator handle (the resilient communicator).

Application code using Fenix swaps ``MPI_COMM_WORLD`` for this handle
(the paper, Section VI-E: "simply swap references to MPI_COMM_WORLD to
the resilient communicator").  It behaves exactly like a normal
:class:`~repro.mpi.handle.CommHandle` until an operation reports a process
failure or a revocation; then the attached error handler:

1. revokes the resilient communicator, so every other rank's pending or
   future operation also errors (failure propagation), and
2. raises :class:`~repro.fenix.errors.FenixLongJump`, unwinding the
   application stack back to :meth:`FenixSystem.run` -- the single
   control-flow exit point for failures.
"""

from __future__ import annotations

from repro.fenix.errors import FenixLongJump
from repro.mpi.errors import MPIError, ProcFailedError, RevokedError
from repro.mpi.handle import CommHandle


class FenixCommHandle(CommHandle):
    """A CommHandle whose error handler enters Fenix recovery.

    The owning :class:`~repro.fenix.runtime.FenixSystem` is read from the
    rank context (``ctx.user['fenix_system']``), which keeps this class
    constructor-compatible with :meth:`CommHandle.rebind`.
    """

    @property
    def system(self):
        return self.ctx.user["fenix_system"]

    def _on_mpi_error(self, exc: MPIError) -> None:
        if isinstance(exc, (ProcFailedError, RevokedError)):
            system = self.system
            self.comm.revoke()
            system.note_detection(self.ctx, exc)
            raise FenixLongJump(system.generation)
        # anything else (misuse) propagates as a normal error
