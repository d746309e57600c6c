"""repro.profile: per-layer cost attribution over the telemetry stream.

Two consumers of one span stream:

- :mod:`repro.profile.ledger` -- the exact per-rank time ledger (every
  simulated second in exactly one category, categories sum to makespan);
- :mod:`repro.profile.flamegraph` -- folded-stack export for
  speedscope / flamegraph.pl.

``python -m repro.profile`` wraps both; two saved ledgers are gated
per category by ``python -m repro.report diff``.  A recovery's kill ->
re-entry path is :mod:`repro.monitor.explain`'s.
"""

from repro.profile.categories import CATEGORIES
from repro.profile.flamegraph import folded_stacks, write_folded
from repro.profile.ledger import (
    ConservationError,
    ProfileLedger,
    RankLedger,
    build_ledger,
    format_ledger,
)

__all__ = [
    "CATEGORIES",
    "ConservationError",
    "ProfileLedger",
    "RankLedger",
    "build_ledger",
    "folded_stacks",
    "format_ledger",
    "write_folded",
]
