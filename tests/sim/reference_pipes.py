"""The pipe lock as two calls: the ordering oracle for :class:`PipeHold`.

Before :class:`~repro.sim.resources.PipeHold` took pipe locks itself, a
hold asked ``request_cb`` for each pipe and gave it back with
``release``: a grant was one ``call_soon`` away, and a release handed
the pipe to its first waiter with another.  This module keeps that
version verbatim -- the two lock calls as functions over a real
:class:`~repro.sim.resources.BandwidthPipe`, and :class:`ReferenceHold`
built on them -- so that a differential test can run both on identical
engines and demand the same ready-queue entries, timers and counters.
"""

from typing import Any, Callable, Iterable

from repro.sim.resources import Piece
from repro.util.errors import SimulationError

_WAIT_FIRST, _WAIT_SECOND, _HOLDING, _OVER = range(4)


def request_cb(pipe, fn: Callable[[Any], None]) -> None:
    """Ask for ``pipe``: ``fn(None)`` runs one zero-delay hop after the
    grant, where a waiting process would have resumed."""
    if pipe.in_use:
        pipe._waiters.append(fn)
    else:
        pipe.in_use = 1
        pipe.engine.call_soon(fn)


def release(pipe) -> None:
    if not pipe.in_use:
        raise SimulationError(f"{pipe.name}: release without acquire")
    if pipe._waiters:
        # hand the pipe straight to the next waiter (still in use)
        pipe.engine.call_soon(pipe._waiters.popleft())
    else:
        pipe.in_use = 0


class ReferenceHold:
    """``PipeHold`` as it was: every lock step through the two calls."""

    __slots__ = ("first", "second", "hold", "nbytes", "_pieces", "_done",
                 "_arg", "_state")

    def __init__(
        self,
        pieces: Iterable[Piece],
        done: Callable[[Any], None],
        arg: Any = None,
    ) -> None:
        self._pieces = iter(pieces)
        self._done = done
        self._arg = arg
        self._next()

    def _next(self) -> None:
        piece = next(self._pieces, None)
        if piece is None:
            self._state = _OVER
            self._done(self._arg)
            return
        self.first, self.second, self.hold, nbytes = piece
        self.nbytes = float(nbytes)
        self._state = _WAIT_FIRST
        request_cb(self.first, self._got_first)

    def _got_first(self, _: Any) -> None:
        if self._state == _OVER:  # cancelled while the grant was on its way
            release(self.first)
        elif self.second is None:
            self._occupy(None)
        else:
            self._state = _WAIT_SECOND
            request_cb(self.second, self._occupy)

    def _occupy(self, _: Any) -> None:
        if self._state == _OVER:
            release(self.second)
            return
        self._state = _HOLDING
        hold = self.hold
        first = self.first
        first.busy_time += hold
        first.bytes_moved += self.nbytes
        second = self.second
        if second is not None:
            second.busy_time += hold
            second.bytes_moved += self.nbytes
        first.engine.call_later(hold, self._finish)

    def _finish(self, _: Any) -> None:
        if self._state == _HOLDING:  # else: cancelled, pipes already back
            self._release()
            self._next()

    def _release(self) -> None:
        self._state = _OVER
        if self.second is not None:
            release(self.second)
        release(self.first)

    def cancel(self) -> None:
        state, self._state = self._state, _OVER
        if state == _HOLDING:
            self._release()
        elif state == _WAIT_SECOND:
            self.second.withdraw(self._occupy)
            release(self.first)
        elif state == _WAIT_FIRST:
            self.first.withdraw(self._got_first)
