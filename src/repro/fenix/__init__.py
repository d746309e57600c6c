"""Fenix analogue: process-level resilience on simulated ULFM.

Implements the protocol of the paper's Section IV and Figure 2:

- **Spare ranks**: the world's last ``n_spares`` ranks are held out of the
  *resilient communicator* and block inside Fenix initialization until a
  failure needs them.
- **Single failure exit point**: every MPI error on the resilient
  communicator triggers the Fenix error handler
  (:class:`FenixCommHandle`), which revokes the communicator (propagating
  the failure to every rank including spares) and "long-jumps" back to the
  initialization point -- realized here as the :class:`FenixLongJump`
  exception caught by :meth:`FenixSystem.run`.
- **In-place repair**: the repaired communicator has the *same size* with
  failed ranks replaced by spares in their old slots, so rank ids (and
  therefore VeloC checkpoint keys) stay stable.
- **Roles**: after (re)initialization each rank learns whether it is
  ``INITIAL``, ``SURVIVOR`` or ``RECOVERED`` and the application branches
  on that for its checkpoint/recovery decisions (Figure 2's rank states).
- **IMR**: Fenix's In-Memory-Redundancy data store with the buddy-rank
  policy (Section V-A), used both directly and as a Kokkos-Resilience
  backend.
"""

from repro.fenix.roles import Role
from repro.fenix.errors import FenixError, FenixLongJump, SpareExhaustionError
from repro.fenix.handle import FenixCommHandle
from repro.fenix.runtime import FenixSystem, RepairResult
from repro.fenix.imr import IMRStore

__all__ = [
    "Role",
    "FenixError",
    "FenixLongJump",
    "SpareExhaustionError",
    "FenixCommHandle",
    "FenixSystem",
    "RepairResult",
    "IMRStore",
]
