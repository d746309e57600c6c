"""Overhead-bounded adaptive sampling for the telemetry span path.

Telemetry must observe a run without becoming the run's cost.  The
sampler bounds record volume with *per-kind head sampling*: for each
span name (or trace-record kind) the first ``head`` occurrences are
always kept, after which one in ``stride`` survives; every time another
``budget_per_kind`` records of a kind have been kept past the head, the
stride doubles (up to ``max_stride``), so a kind that keeps firing gets
progressively cheaper -- the *adaptive* part.  Decisions are pure
functions of per-kind occurrence counts, never of wall time or
randomness, so a sampled run is bit-reproducible.

**Hard exemptions keep the analysis layers sound.**  Only names listed
in :data:`SAMPLEABLE_SPANS` / :data:`SAMPLEABLE_SPAN_PREFIXES` / the
vocabulary's :data:`~repro.vocabulary.SAMPLEABLE_TRACE_KINDS` may
ever be dropped; everything else --
in particular every trace kind a :mod:`repro.monitor` state machine
consumes and every failure/recovery span :mod:`repro.profile` walks --
is always kept, so monitors and the recovery critical path never see a
sampling-induced gap.  The default-deny direction matters: a span name
added tomorrow is protected until someone proves it safe to sample.

Drop accounting is exact: the sampler counts every suppressed record
per kind, and :class:`~repro.sim.trace.Trace` folds record drops into
the same ``dropped``/``dropped_window`` machinery the ring buffer uses,
so a consumer of a sampled trace can always say *what it did not see*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.util.errors import ConfigError
from repro.vocabulary import SAMPLEABLE_TRACE_KINDS

#: span names that may be sampled: per-iteration application/MPI work
#: whose volume dwarfs everything else and whose absence degrades only
#: optional analyses (flame graphs thin out; attribution coarsens).
#: Every failure/recovery span (fenix.*, job.*, kr.restore/latest/
#: commit, veloc.checkpoint/recover, imr.*, recompute, rank_killed,
#: ...) is protected by omission.
SAMPLEABLE_SPANS = frozenset({
    "compute",
    "sleep",
    "kr.region",
    "veloc.flush",
    "veloc.drain",
    "veloc.flush_wait",
    "veloc.submit",
})

#: sampled by prefix: the per-call MPI op spans ("mpi.send", ...)
SAMPLEABLE_SPAN_PREFIXES: Tuple[str, ...] = ("mpi.",)


def span_sampleable(name: str) -> bool:
    """True when the sampler is *allowed* to drop spans of this name."""
    return name in SAMPLEABLE_SPANS or name.startswith(SAMPLEABLE_SPAN_PREFIXES)


def record_sampleable(kind: str) -> bool:
    """True when the sampler is *allowed* to drop records of this kind."""
    return kind in SAMPLEABLE_TRACE_KINDS


@dataclass(frozen=True)
class SamplingPolicy:
    """Knobs of the adaptive head sampler (frozen: cache-hashable,
    picklable, safe to embed in a :class:`~repro.parallel.CellSpec`)."""

    #: occurrences of each kind always kept before sampling starts
    head: int = 64
    #: initial keep-1-in-N stride past the head
    stride: int = 10
    #: kept records (past the head) per stride doubling
    budget_per_kind: int = 512
    #: escalation ceiling
    max_stride: int = 4096

    def __post_init__(self) -> None:
        if self.head < 0:
            raise ConfigError(f"sampling head must be >= 0, got {self.head}")
        if self.stride < 1:
            raise ConfigError(f"sampling stride must be >= 1, got {self.stride}")
        if self.budget_per_kind < 1:
            raise ConfigError(
                f"budget_per_kind must be >= 1, got {self.budget_per_kind}")
        if self.max_stride < self.stride:
            raise ConfigError(
                f"max_stride ({self.max_stride}) must be >= stride "
                f"({self.stride})")

    @classmethod
    def tightest(cls) -> "SamplingPolicy":
        """The most aggressive supported setting (CI's stress point)."""
        return cls(head=8, stride=16, budget_per_kind=64, max_stride=8192)

    def to_dict(self) -> Dict[str, int]:
        return {
            "head": self.head,
            "stride": self.stride,
            "budget_per_kind": self.budget_per_kind,
            "max_stride": self.max_stride,
        }


class SpanSampler:
    """Stateful per-run sampler shared by the tracer and the trace.

    One instance serves one job: :class:`~repro.telemetry.collector
    .Telemetry` consults :meth:`keep_span` before opening a span or
    recording an instant, and :class:`~repro.sim.trace.Trace` consults
    :meth:`keep_record` before materializing a record.  Not
    thread-safe; the simulator is single-threaded by construction.
    """

    def __init__(self, policy: Optional[SamplingPolicy] = None) -> None:
        self.policy = policy if policy is not None else SamplingPolicy()
        self._seen: Dict[str, int] = {}
        self._kept_past_head: Dict[str, int] = {}
        self._stride: Dict[str, int] = {}
        #: exact per-name drop counts (the accounting the summary reports)
        self.dropped_spans: Dict[str, int] = {}
        self.dropped_records: Dict[str, int] = {}

    # -- decisions --------------------------------------------------------

    def keep_span(self, name: str) -> bool:
        if not span_sampleable(name):
            return True
        if self._decide("span:" + name):
            return True
        self.dropped_spans[name] = self.dropped_spans.get(name, 0) + 1
        return False

    def keep_record(self, kind: str) -> bool:
        if not record_sampleable(kind):
            return True
        if self._decide("rec:" + kind):
            return True
        self.dropped_records[kind] = self.dropped_records.get(kind, 0) + 1
        return False

    def _decide(self, key: str) -> bool:
        p = self.policy
        seen = self._seen.get(key, 0) + 1
        self._seen[key] = seen
        if seen <= p.head:
            return True
        stride = self._stride.get(key, p.stride)
        if (seen - p.head - 1) % stride != 0:
            return False
        kept = self._kept_past_head.get(key, 0) + 1
        self._kept_past_head[key] = kept
        if kept % p.budget_per_kind == 0 and stride < p.max_stride:
            self._stride[key] = min(p.max_stride, stride * 2)
        return True

    # -- accounting -------------------------------------------------------

    @property
    def dropped_span_total(self) -> int:
        return sum(self.dropped_spans.values())

    @property
    def dropped_record_total(self) -> int:
        return sum(self.dropped_records.values())

    @property
    def dropped_total(self) -> int:
        return self.dropped_span_total + self.dropped_record_total

    def summary(self) -> Dict:
        """JSON-ready drop accounting (lands in ``RunReport.telemetry``)."""
        return {
            "policy": self.policy.to_dict(),
            "dropped_spans": dict(sorted(self.dropped_spans.items())),
            "dropped_records": dict(sorted(self.dropped_records.items())),
            "dropped_span_total": self.dropped_span_total,
            "dropped_record_total": self.dropped_record_total,
            "dropped_total": self.dropped_total,
        }
