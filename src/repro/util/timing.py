"""Per-rank time accounting.

The paper splits measured time into categories: "App compute", "App MPI",
"Resilience Initialization", "Checkpoint Function", "Data Recovery",
"Recompute" and "Other" (Figure 5), and MiniMD's phase categories "Force
Compute" / "Neighboring" / "Communicator" (Figure 6).

:class:`TimeAccount` implements the same scheme: low-level components
charge a *kind* (``compute`` or ``mpi``), and whatever label is on top of
the account's label stack decides the bucket.  With an empty stack the
default mapping applies (compute -> ``app_compute``, mpi -> ``app_mpi``);
resilience layers push labels like ``checkpoint_function`` around their
work, and applications push phase labels like ``force_compute``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: bucket names used across the harness (mirrors the paper's legends)
APP_COMPUTE = "app_compute"
APP_MPI = "app_mpi"
RESILIENCE_INIT = "resilience_init"
CHECKPOINT_FUNCTION = "checkpoint_function"
DATA_RECOVERY = "data_recovery"
RECOMPUTE = "recompute"
OTHER = "other"

_DEFAULT_BUCKET = {
    "compute": APP_COMPUTE,
    "mpi": APP_MPI,
}


class TimeAccount:
    """Accumulates simulated seconds into named buckets for one rank."""

    def __init__(self) -> None:
        self.buckets: Dict[str, float] = defaultdict(float)
        self._labels: List[str] = []

    def charge(self, kind: str, dt: float) -> None:
        """Attribute ``dt`` seconds of ``kind`` work to the active bucket."""
        if dt < 0:
            raise ValueError(f"negative charge: {dt}")
        bucket = self._labels[-1] if self._labels else _DEFAULT_BUCKET.get(kind, kind)
        self.buckets[bucket] += dt

    @contextmanager
    def label(self, name: str) -> Iterator[None]:
        """Redirect all charges inside the block to bucket ``name``.

        Nested labels override outer ones (e.g. MiniMD pushes
        ``force_compute`` inside a ``recompute`` window -- the paper likewise
        reports recompute as extra time inside the compute phases)."""
        self._labels.append(name)
        try:
            yield
        finally:
            self._labels.pop()

    @property
    def active_label(self) -> Optional[str]:
        return self._labels[-1] if self._labels else None

    def total(self) -> float:
        return sum(self.buckets.values())

    def get(self, bucket: str) -> float:
        return self.buckets.get(bucket, 0.0)

    def snapshot(self) -> Dict[str, float]:
        return dict(self.buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.buckets.items()))
        return f"<TimeAccount {parts}>"
