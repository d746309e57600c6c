"""Pickle-safe job specifications for the parallel campaign executor.

A sweep cell is described *declaratively*: a :class:`CellSpec` names the
application, strategy, rank count, configuration, environment and a
:class:`PlanSpec` (a failure-plan *description*, not a live plan).  The
worker -- possibly in another process -- materializes the live objects
(``FailurePlan``, ``Telemetry``) from the spec, runs the simulation, and
returns a :class:`CellResult`.

Determinism: every source of randomness in a cell flows from values
carried by the spec (the cluster seed inside ``ExperimentEnv``, the
failure-plan seed inside ``PlanSpec``), so executing a spec in a worker
process is bit-identical to executing it inline.  That is also what
makes cells content-addressable (see :mod:`repro.parallel.cache`).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.apps import resolve_app
from repro.harness import ExperimentEnv, RunReport, run_job
from repro.sim import (
    ExponentialFailures,
    FailurePlan,
    IterationFailure,
    NoFailures,
    TimedFailure,
)
from repro.util.errors import ConfigError

#: default ring-buffer size for telemetered sweep runs: long campaigns
#: must not grow trace-record lists without bound (PR 2's ``max_records``)
DEFAULT_TRACE_MAX_RECORDS = 100_000

#: simulations actually executed in this process (cache hits do not
#: count; tests assert on this to prove a hit skipped the simulator)
RUNS_EXECUTED = 0


@dataclass(frozen=True)
class PlanSpec:
    """Declarative failure plan: picklable, hashable, buildable anywhere.

    ``kind`` selects the concrete :class:`~repro.sim.FailurePlan`:

    - ``"none"``: the failure-free control;
    - ``"iteration"``: kill ``kills`` = ((rank, iteration), ...);
    - ``"timed"``: kill ``kills`` = ((rank, sim_time), ...);
    - ``"exponential"``: memoryless per-rank failures from
      (``mtbf_per_rank``, ``seed``, ``max_failures``, ``victims``).
    """

    kind: str = "none"
    kills: Tuple[Tuple[int, float], ...] = ()
    mtbf_per_rank: float = 0.0
    seed: int = 0
    max_failures: Optional[int] = None
    victims: Optional[Tuple[int, ...]] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def none(cls) -> "PlanSpec":
        return cls()

    @classmethod
    def iteration(cls, kills: Iterable[Tuple[int, int]]) -> "PlanSpec":
        return cls(kind="iteration",
                   kills=tuple(sorted((int(r), int(i)) for r, i in kills)))

    @classmethod
    def between_checkpoints(
        cls,
        rank: int,
        checkpoint_interval: int,
        after_checkpoint: int,
        fraction: float = 0.95,
    ) -> "PlanSpec":
        """The paper's rule, as IterationFailure spells it."""
        return cls.iteration(IterationFailure.between_checkpoints(
            rank, checkpoint_interval, after_checkpoint, fraction).pending)

    @classmethod
    def exponential(
        cls,
        mtbf_per_rank: float,
        seed: int = 0,
        max_failures: Optional[int] = None,
        victims: Optional[Iterable[int]] = None,
    ) -> "PlanSpec":
        return cls(
            kind="exponential",
            mtbf_per_rank=float(mtbf_per_rank),
            seed=int(seed),
            max_failures=max_failures,
            victims=tuple(sorted(victims)) if victims is not None else None,
        )

    @classmethod
    def timed(cls, kills: Iterable[Tuple[int, float]]) -> "PlanSpec":
        return cls(kind="timed",
                   kills=tuple(sorted((int(r), float(t)) for r, t in kills)))

    # -- materialization ------------------------------------------------

    def build(self) -> FailurePlan:
        """A fresh live plan; stateful, so build one per execution."""
        if self.kind == "none":
            return NoFailures()
        if self.kind == "iteration":
            return IterationFailure([(r, int(i)) for r, i in self.kills])
        if self.kind == "timed":
            return TimedFailure(self.kills)
        if self.kind == "exponential":
            return ExponentialFailures(
                self.mtbf_per_rank,
                seed=self.seed,
                max_failures=self.max_failures,
                victims=self.victims,
            )
        raise ConfigError(f"unknown failure-plan kind {self.kind!r}")


@dataclass(frozen=True)
class CellSpec:
    """One independent sweep cell: everything a worker needs, by value."""

    app: str
    strategy: str
    n_ranks: int
    config: Any
    ckpt_interval: int
    env: ExperimentEnv
    plan: PlanSpec = field(default_factory=PlanSpec)
    #: record metrics/spans during the run (fresh Telemetry per worker)
    telemetry: bool = False
    #: Trace ring-buffer size for telemetered runs (None = unbounded)
    trace_max_records: Optional[int] = DEFAULT_TRACE_MAX_RECORDS
    #: path to an SLO rules file evaluated live during the run; fired
    #: alerts land in ``RunReport.alerts``
    rules: Optional[str] = None
    #: run the cell twice from identical seeds and align the traces;
    #: divergences land in ``RunReport.divergences`` (see repro.align)
    determinism_audit: bool = False
    #: free-form tag for reassembling sweep results; not part of the
    #: cache identity
    label: str = ""

    def __post_init__(self) -> None:
        resolve_app(self.app)


@dataclass
class CellResult:
    """What comes back from a worker: the (sanitized) report plus the
    failure count the live plan actually injected."""

    spec: CellSpec
    report: RunReport
    failures: int
    #: provenance: True when served from the run cache (no simulation)
    cached: bool = False
    #: host wall seconds the simulation took (0.0 for cache hits);
    #: observability only -- never an input to anything simulated
    host_seconds: float = 0.0

    @property
    def label(self) -> str:
        return self.spec.label


def sanitize_report(report: RunReport) -> RunReport:
    """Strip per-rank application payloads from a report.

    ``RunReport.results`` can hold live simulation objects (views, KR
    contexts) that are neither picklable nor JSON-serializable, so a
    report is stripped whenever it crosses a process boundary or enters
    the run cache.  The serialized report form
    (:func:`repro.harness.report.reports_to_json`) omits ``results``
    entirely, which is why sequential, pooled, and cached outputs stay
    byte-identical where it is asserted.
    """
    return dataclasses.replace(report, results={})


def execute_cell(spec: CellSpec) -> CellResult:
    """Run one cell to completion in this process."""
    global RUNS_EXECUTED
    telemetry = None
    if spec.telemetry:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    plan = spec.plan.build()
    t0 = time.perf_counter()
    report = run_job(
        spec.app,
        spec.env,
        spec.strategy,
        spec.n_ranks,
        spec.config,
        spec.ckpt_interval,
        plan=plan,
        telemetry=telemetry,
        trace_max_records=spec.trace_max_records,
        rules=spec.rules,
        determinism_audit=spec.determinism_audit,
    )
    host_seconds = time.perf_counter() - t0
    RUNS_EXECUTED += 1
    fired = getattr(plan, "fired", None)
    failures = fired if fired is not None else plan.expected_failures()
    return CellResult(spec=spec, report=report, failures=failures,
                      host_seconds=host_seconds)


def execute_cell_stripped(spec: CellSpec) -> CellResult:
    """Worker entry point: like :func:`execute_cell` but with the
    report sanitized for the trip back through pickle."""
    result = execute_cell(spec)
    result.report = sanitize_report(result.report)
    return result


def spec_to_dict(obj: Any) -> Any:
    """Recursively canonicalize a spec for hashing / JSON.

    Dataclasses become ``{"__type__": name, fields...}``; tuples become
    lists; only JSON-compatible leaves may remain.  ``label`` is
    dropped from :class:`CellSpec` so cosmetic tags don't split the
    cache.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            if isinstance(obj, CellSpec) and f.name == "label":
                continue
            out[f.name] = spec_to_dict(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [spec_to_dict(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): spec_to_dict(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(
        f"cell specs must be built from dataclasses and plain values; "
        f"got {type(obj).__name__}"
    )
