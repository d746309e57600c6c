"""The profiler's attribution categories and the span -> category map.

Every simulated second of a rank's makespan lands in exactly one of the
:data:`CATEGORIES` below -- the per-layer split the paper's Figures 5-6
argue from, extended with the categories that only show up *between*
application phases (failure detection, ULFM agreement, Fenix repair,
idle).

Attribution is **priority-based**, not innermost-span-wins: a survivor's
recompute window contains ordinary ``compute`` and ``mpi.*`` spans, and
those seconds must be charged to ``recompute`` (the paper reports
recompute as *extra* time caused by the rollback, wherever it is spent).
Conversely a checkpoint or restore taken inside a recompute window is
still checkpoint/restore time.  :func:`categorize` returns
``(category, priority)`` for one span; higher priority wins where spans
overlap on a rank's timeline.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: ledger categories, display order (mirrors the tentpole list)
COMPUTE = "compute"
APP_MPI = "app_mpi_wait"
CHECKPOINT_COPY = "checkpoint_copy"
FLUSH_CONGESTION = "flush_congestion"
FAILURE_DETECTION = "failure_detection"
ULFM_AGREEMENT = "ulfm_agreement"
FENIX_REPAIR = "fenix_repair"
KR_RESTORE = "kr_reset_restore"
VELOC_RECOVER = "veloc_recover"
RECOMPUTE = "recompute"
RESILIENCE_INIT = "resilience_init"
IDLE = "idle"

CATEGORIES = [
    COMPUTE,
    APP_MPI,
    CHECKPOINT_COPY,
    FLUSH_CONGESTION,
    FAILURE_DETECTION,
    ULFM_AGREEMENT,
    FENIX_REPAIR,
    KR_RESTORE,
    VELOC_RECOVER,
    RECOMPUTE,
    RESILIENCE_INIT,
    IDLE,
]

# span name -> (category, priority); priorities are spaced so new layers
# can slot in without renumbering
_EXACT = {
    "veloc.recover": (VELOC_RECOVER, 80),
    "imr.restore": (VELOC_RECOVER, 80),
    "kr.restore": (KR_RESTORE, 70),
    "veloc.checkpoint": (CHECKPOINT_COPY, 60),
    "imr.store": (CHECKPOINT_COPY, 58),
    "kr.commit": (CHECKPOINT_COPY, 58),
    "fenix.repair": (FENIX_REPAIR, 45),
    "fenix.init": (RESILIENCE_INIT, 42),
    "recompute": (RECOMPUTE, 30),
    "compute": (COMPUTE, 10),
    "sleep": (IDLE, 6),
    # structural spans carry no cost of their own (their contents do)
    "kr.region": None,
}

#: ULFM management operations routed through the MPI layer
_ULFM_OPS = {"mpi.agree", "mpi.shrink"}


def categorize(name: str,
               fields: Optional[dict] = None) -> Optional[Tuple[str, int]]:
    """``(category, priority)`` for a span name, or None for transparent
    spans (structural / job-level spans that own no rank seconds)."""
    if name in _EXACT:
        return _EXACT[name]
    if name in _ULFM_OPS:
        return (ULFM_AGREEMENT, 55)
    if name == "kr.latest":
        # metadata query: resilience init on the happy path, part of the
        # KR reset/restore stage after a failure
        post = bool(fields and fields.get("post_failure"))
        return (KR_RESTORE, 50) if post else (RESILIENCE_INIT, 50)
    if name.startswith("mpi."):
        return (APP_MPI, 20)
    return None
