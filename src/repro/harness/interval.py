"""Optimal checkpoint-interval estimators (Young / Daly).

The checkpoint-interval ablation (``python -m repro experiments
ablation``, :mod:`repro.experiments.ablations`) sweeps the
recompute-vs-overhead trade-off empirically; these closed forms give the
classical first-order optima for comparison:

- Young's approximation:  ``sqrt(2 * C * M)``
- Daly's higher-order fit: ``sqrt(2*C*M) * [1 + sqrt(C/(2*M))/3 + C/(9*M)] - C``
  (valid for ``C < 2M``; Daly 2006, eq. 37)

where ``C`` is the time to take one checkpoint and ``M`` the system mean
time between failures.
"""

from __future__ import annotations

import math

from repro.util.errors import ConfigError


def young_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Young's first-order optimal checkpoint interval."""
    _validate(checkpoint_cost, mtbf)
    return math.sqrt(2.0 * checkpoint_cost * mtbf)


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's refined optimal checkpoint interval (his eq. 37)."""
    _validate(checkpoint_cost, mtbf)
    c, m = checkpoint_cost, mtbf
    if c >= 2.0 * m:
        # degenerate regime: checkpointing costs more than the MTBF
        return float(m)
    base = math.sqrt(2.0 * c * m)
    return base * (1.0 + math.sqrt(c / (2.0 * m)) / 3.0 + c / (9.0 * m)) - c


def expected_runtime(
    work: float, interval: float, checkpoint_cost: float, mtbf: float,
) -> float:
    """Expected wall time for ``work`` seconds of computation checkpointed
    every ``interval`` seconds under exponential failures -- used to
    sanity-check the optima.

    Daly's run-time model ``M·e^{R/M}·(e^{(τ+C)/M} − 1)·W/τ`` with
    ``W = work``, ``τ = interval``, ``C = checkpoint_cost``, ``M = mtbf``
    and the restart cost ``R`` taken as zero."""
    _validate(checkpoint_cost, mtbf)
    if interval <= 0:
        raise ConfigError("interval must be positive")
    segment = interval + checkpoint_cost
    n_segments = work / interval
    # expected time per attempted segment under exponential failures
    per_segment = mtbf * (math.exp(segment / mtbf) - 1.0)
    return n_segments * per_segment


def _validate(checkpoint_cost: float, mtbf: float) -> None:
    if checkpoint_cost < 0:
        raise ConfigError("checkpoint cost must be >= 0")
    if mtbf <= 0:
        raise ConfigError("MTBF must be positive")
