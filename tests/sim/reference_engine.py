"""The ordering oracle: an engine with a heap and nothing else.

Every piece of work -- zero-delay or not -- is a heap entry ordered by
``(time, seq)``, which is the *definition* of the engine's determinism
contract.  The real engine's ready queue must be indistinguishable from
it.  Events, processes, combinators and resources are the real classes;
only scheduling and the run loop are replaced.
"""

from heapq import heappop, heappush

from repro.sim import Engine
from repro.util.errors import SimulationError


class _HeapBackedReady:
    """Stands in for the ready deque: appending schedules at delay 0."""

    def __init__(self, engine):
        self._engine = engine

    def append(self, item):
        self._engine.call_later(0.0, *item)


class HeapOnlyEngine(Engine):
    def __init__(self):
        super().__init__()
        self._ready = _HeapBackedReady(self)

    def call_soon(self, fn, arg=None):
        self.call_later(0.0, fn, arg)

    def call_later(self, delay, fn, arg=None):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def run(self, until=None, check_deadlock=True):
        heap = self._heap
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                break
            self.now, _, fn, arg = heappop(heap)
            fn(arg)
        return self.now
