"""Distribution summaries and bootstrap confidence intervals.

The campaign scorecard reports *distributions across runs*, not single
numbers: ReStore (arXiv:2203.01107) and the repair/no-repair study
(arXiv:2410.08647) both evaluate recovery strategies this way, and a
single seeded run says nothing about whether ``fenix_kr_veloc`` beating
``kr_veloc`` was luck.

Everything here is dependency-free and deterministic: the bootstrap
resampler is seeded (default :data:`BOOTSTRAP_SEED`), so the same run
set always yields the same interval -- a requirement for the diff gate,
which compares scorecards byte-for-byte against a committed baseline.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Sequence

#: default seed for the bootstrap resampler (fixed: scorecards must be
#: reproducible so `repro.report diff` can gate on them)
BOOTSTRAP_SEED = 20220906

#: default resample count; 2000 keeps the 95% CI stable to ~2 digits
BOOTSTRAP_RESAMPLES = 2000


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    n = len(s)
    mid = n // 2
    if n % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return s[lo]
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0 for fewer than two values)."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = mean,
    confidence: float = 0.95,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> Dict[str, float]:
    """Percentile-bootstrap interval for ``statistic`` over ``values``.

    Returns ``{"lo": ..., "hi": ...}``.  With one observation the
    interval collapses to that value (honest: no spread information),
    and with none it is ``(0, 0)``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    values = list(values)
    if not values:
        return {"lo": 0.0, "hi": 0.0}
    if len(values) == 1:
        return {"lo": values[0], "hi": values[0]}
    rng = random.Random(seed)
    n = len(values)
    stats: List[float] = []
    for _ in range(resamples):
        sample = [values[rng.randrange(n)] for _ in range(n)]
        stats.append(statistic(sample))
    alpha = (1.0 - confidence) / 2.0
    return {
        "lo": percentile(stats, 100.0 * alpha),
        "hi": percentile(stats, 100.0 * (1.0 - alpha)),
    }


def summarize(
    values: Sequence[float],
    ci: bool = True,
    confidence: float = 0.95,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> Dict[str, float]:
    """The scorecard's standard distribution summary.

    ``n``, ``mean``, ``median``, ``p95``, ``min``, ``max``, ``stdev``,
    plus a bootstrap CI on the mean (``ci_lo``/``ci_hi``) when ``ci``.
    """
    values = list(values)
    out: Dict[str, float] = {
        "n": len(values),
        "mean": mean(values),
        "median": median(values),
        "p95": percentile(values, 95.0),
        "min": min(values) if values else 0.0,
        "max": max(values) if values else 0.0,
        "stdev": stdev(values),
    }
    if ci:
        interval = bootstrap_ci(values, confidence=confidence,
                                resamples=resamples, seed=seed)
        out["ci_lo"] = interval["lo"]
        out["ci_hi"] = interval["hi"]
    return out


def zscores(values: Sequence[float]) -> List[float]:
    """Per-value z-scores (all zero when the spread is zero)."""
    sd = stdev(values)
    if sd == 0.0:
        return [0.0] * len(values)
    m = mean(values)
    return [(v - m) / sd for v in values]


def outlier_indices(
    values: Sequence[float], threshold: float = 3.0
) -> List[int]:
    """Indices whose |z| exceeds ``threshold`` (anomaly flagging)."""
    return [i for i, z in enumerate(zscores(values))
            if abs(z) > threshold]
