"""Recompute instrumentation.

"The bulk of the cost of recovery is in recomputing the data lost since
the last checkpoint" (Section VI-D2).  The tracker keeps, per communicator
slot, the highest iteration whose region has *ever* executed in this
experiment -- across Fenix re-entries and across whole job relaunches --
so re-executed iterations can be charged to the ``recompute`` bucket.
Ranks consult it through one call, ``RankContext.iteration``.

This is measurement instrumentation, not application state: it lives in
the harness, outside any simulated process, exactly like the paper's
external ``time`` measurements.
"""

from __future__ import annotations

from typing import Dict


class RecomputeTracker:
    """High-watermark of executed iterations per communicator slot."""

    def __init__(self) -> None:
        self._watermark: Dict[int, int] = {}

    def is_recompute(self, slot: int, iteration: int) -> bool:
        """Has this slot already executed ``iteration`` once before?"""
        return iteration <= self._watermark.get(slot, -1)

    def advance(self, slot: int, iteration: int) -> None:
        current = self._watermark.get(slot, -1)
        if iteration > current:
            self._watermark[slot] = iteration

    def watermark(self, slot: int) -> int:
        return self._watermark.get(slot, -1)

    def reset(self) -> None:
        self._watermark.clear()
