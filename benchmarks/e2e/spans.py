"""Host-time spans recorded by the benchmark around its calls into the
program: kept in memory, written out when the run ends."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records ``{name, start, end, parent, op}``; ``parent`` indexes the
    span list, ``op`` groups the spans of one operation."""

    def __init__(self) -> None:
        self.enabled = False
        self.op: Optional[str] = None
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds per span name not covered by child spans.

    Children of one parent never overlap here (one client, one thread),
    so the covered part is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s["name"]] += s["end"] - s["start"] - covered[i]
    return dict(out)
