"""Failure-injection plans.

The paper (Section VI-C) simulates failures "through a rank exiting early,
approximately 95% of the way between two checkpoints".
:class:`IterationFailure` reproduces this: the application polls the plan at
each iteration boundary and the plan raises :class:`RankKilledError` on the
victim rank at the configured iteration.  :class:`TimedFailure` instead
kills a rank process at an absolute simulated time (useful for tests that
exercise failures *inside* MPI operations).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.sim.engine import Engine, Process
from repro.util.errors import ConfigError, ReproError


class RankKilledError(ReproError):
    """Raised inside a rank's coroutine to simulate sudden process death."""

    def __init__(self, rank: int, reason: str = "") -> None:
        super().__init__(f"rank {rank} killed{': ' + reason if reason else ''}")
        self.rank = rank


class FailurePlan:
    """Base class: a schedule of rank deaths for one job execution."""

    def check(self, rank: int, iteration: int) -> None:
        """Called by the application at each iteration top; raises
        :class:`RankKilledError` if this rank dies here."""

    def arm(self, engine: Engine, rank: int, proc: Process) -> None:
        """Hook for time-based plans to set a timer that kills ``proc``."""

    def expected_failures(self) -> int:
        """Total number of rank deaths this plan will inject."""
        return 0

    def reset(self) -> None:
        """Forget which failures already fired (for job relaunch loops where
        the same plan object must not re-kill already-recovered work)."""


class NoFailures(FailurePlan):
    """The failure-free control runs."""

    def __repr__(self) -> str:
        return "NoFailures()"


class IterationFailure(FailurePlan):
    """Kill specific ranks at specific application iterations, once each.

    Args:
        kills: iterable of ``(rank, iteration)`` pairs.
    """

    def __init__(self, kills: Iterable[Tuple[int, int]]) -> None:
        self._kills: Set[Tuple[int, int]] = set(
            (int(r), int(i)) for r, i in kills
        )
        self._fired: Set[Tuple[int, int]] = set()

    @classmethod
    def between_checkpoints(
        cls,
        rank: int,
        checkpoint_interval: int,
        after_checkpoint: int,
        fraction: float = 0.95,
    ) -> "IterationFailure":
        """The paper's rule: die ``fraction`` of the way from checkpoint
        number ``after_checkpoint`` to the next one."""
        offset = min(
            checkpoint_interval - 1, int(fraction * checkpoint_interval)
        )
        iteration = int(checkpoint_interval * after_checkpoint + offset)
        return cls([(rank, iteration)])

    def check(self, rank: int, iteration: int) -> None:
        key = (rank, iteration)
        if key in self._kills and key not in self._fired:
            self._fired.add(key)
            raise RankKilledError(rank, f"scheduled at iteration {iteration}")

    def expected_failures(self) -> int:
        return len(self._kills)

    @property
    def pending(self) -> Set[Tuple[int, int]]:
        return self._kills - self._fired

    def reset(self) -> None:
        self._fired.clear()

    def __repr__(self) -> str:
        return f"IterationFailure({sorted(self._kills)})"


class ExponentialFailures(FailurePlan):
    """Memoryless per-rank failures (the field-data failure model).

    Each armed rank draws an exponential time-to-failure with the given
    per-rank MTBF -- the model behind the paper's motivation ("node
    failures happened every 4.2 hours" on Blue Waters [1]): with N ranks
    the system-level failure rate is N / mtbf.  ``max_failures`` caps the
    total kills of one plan (so experiments with a fixed spare budget
    terminate); draws are deterministic given ``seed``.

    When a job is relaunched the same plan keeps operating: re-armed
    ranks draw fresh failure times, as real hardware would.
    """

    def __init__(
        self,
        mtbf_per_rank: float,
        seed: int = 0,
        max_failures: Optional[int] = None,
        victims: Optional[Iterable[int]] = None,
    ) -> None:
        if mtbf_per_rank <= 0:
            raise ConfigError("MTBF must be positive")
        self.mtbf_per_rank = float(mtbf_per_rank)
        self._rng = np.random.default_rng(seed)
        self.max_failures = max_failures
        self._victims = set(victims) if victims is not None else None
        self.fired = 0

    def arm(self, engine: Engine, rank: int, proc: Process) -> None:
        if self._victims is not None and rank not in self._victims:
            return
        delay = float(self._rng.exponential(self.mtbf_per_rank))

        def fire(_):
            if not proc.alive:
                return
            if self.max_failures is not None and self.fired >= self.max_failures:
                return
            self.fired += 1
            proc.kill(RankKilledError(rank, f"MTBF failure after {delay:.3g}s"))

        # the timer is set one zero-delay hop after the spawn: a position
        # in the event order that every seeded run reproduces
        engine.call_soon(lambda _: engine.call_later(delay, fire))

    def expected_failures(self) -> int:
        return self.fired

    def reset(self) -> None:
        # intentionally keeps `fired`: the budget spans the whole campaign
        pass

    def __repr__(self) -> str:
        return (
            f"ExponentialFailures(mtbf={self.mtbf_per_rank:g}, "
            f"max={self.max_failures})"
        )


class TimedFailure(FailurePlan):
    """Kill ranks at absolute simulated times via engine timers."""

    def __init__(self, kills: Iterable[Tuple[int, float]]) -> None:
        self._kills: Dict[int, float] = {int(r): float(t) for r, t in kills}
        self._fired: Set[int] = set()

    def arm(self, engine: Engine, rank: int, proc: Process) -> None:
        when = self._kills.get(rank)
        if when is None or rank in self._fired:
            return

        def fire(_):
            if proc.alive and rank not in self._fired:
                self._fired.add(rank)
                proc.kill(RankKilledError(rank, f"timed kill at t={when:g}"))

        # the timer is set one zero-delay hop after the spawn (a position
        # in the event order every seeded run reproduces), from that clock
        engine.call_soon(
            lambda _: engine.call_later(max(0.0, when - engine.now), fire))

    def expected_failures(self) -> int:
        return len(self._kills)

    def reset(self) -> None:
        self._fired.clear()

    def __repr__(self) -> str:
        return f"TimedFailure({sorted(self._kills.items())})"
