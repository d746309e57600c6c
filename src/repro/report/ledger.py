"""The campaign ledger: every run of a sweep, folded into distributions.

A *campaign* is a grid of independent runs over (strategy, scale, seed).
Each run yields one :class:`~repro.harness.RunReport`; this module folds
the stream into:

- :class:`RunRecord` -- the flat, JSON-stable per-run row (simulated
  wall time, attempts, failures, per-category buckets, violation count,
  cache provenance, host cost);
- :class:`CampaignLedger` -- the ordered collection plus per-scale
  failure-free baselines (``ideal``), exemplar artifacts (recovery walk /
  flame stacks) and the progress-stream accounting;
- :func:`build_scorecard` -- per-strategy resilience metrics as
  distributions with bootstrap CIs (see :mod:`repro.report.stats`):

  ==================  ====================================================
  ``efficiency``      ideal wall / achieved wall (higher is better)
  ``overhead_pct``    100 * (wall - ideal) / ideal
  ``recovery_latency_s``  (wall - ideal) / failures, failed runs only --
                      the added cost of one failure under the strategy
  ``recompute_frac``  recompute seconds / wall (lost-work fraction)
  ``checkpoint_frac`` checkpoint-function seconds / wall (the price of
                      protection; at equal protection, lower = a more
                      efficient checkpoint path)
  ``wall_time_s``     the raw distribution the rest derive from
  ``dirty_fraction``  memcpy'd / logical checkpoint bytes (1.0 = every
                      checkpoint was a full copy; the incremental data
                      path pushes this down)
  ==================  ====================================================

- anomaly flagging: within-group outliers (|z| > 3 on wall time) and,
  given a pytest-benchmark baseline (``BENCH_simulator.json``), cells
  whose *host* cost per simulated rank-iteration is wildly above the
  committed single-job benchmark -- an environment problem, not a
  simulation result, and labelled as such.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.report import stats
from repro.util.schema import stamp, warn_on_mismatch

#: ledger / scorecard JSON schema version
LEDGER_SCHEMA = 1

#: scorecard metrics tracked by ``repro.report diff``; direction is the
#: *bad* way ("up" regresses when it grows, "down" when it shrinks)
TRACKED_METRICS: Dict[str, str] = {
    "efficiency": "down",
    "overhead_pct": "up",
    "recovery_latency_s": "up",
    "recompute_frac": "up",
    "checkpoint_frac": "up",
    "wall_time_s": "up",
    # checkpoint data path: a growing dirty fraction means the
    # incremental path degrades toward full copies
    "dirty_fraction": "up",
}

#: summary fields of each metric the diff gate compares
TRACKED_FIELDS = ("mean", "p95")

#: |z| beyond which a run is flagged as an in-group outlier
OUTLIER_Z = 3.0

#: the committed single-job wall-clock benchmark used as the host-cost
#: anchor, and its job shape (4 ranks x 30 iterations; see
#: benchmarks/test_profile_overhead.py)
BENCH_ANCHOR = "test_untelemetered_job_wall_clock"
BENCH_ANCHOR_RANK_ITERS = 4 * 30

#: host cost per rank-iteration beyond this multiple of the benchmark
#: anchor flags the cell (generous: CI machines vary, 25x does not)
HOST_ANOMALY_FACTOR = 25.0


@dataclass
class RunRecord:
    """One run of the campaign, flattened for aggregation and JSON."""

    label: str
    strategy: str
    app: str
    n_ranks: int
    seed: int
    wall_time: float
    attempts: int
    failures: int
    buckets: Dict[str, float] = field(default_factory=dict)
    violations: int = 0
    #: SLO alerts the live rules engine fired during this run (0 when
    #: the run carried no rules file)
    alerts: int = 0
    #: determinism-audit divergences between the run and its seeded
    #: replay (0 when the audit was off or the replay aligned exactly;
    #: see repro.align)
    divergences: int = 0
    cached: bool = False
    host_seconds: float = 0.0
    #: iterations/steps the cell simulated (for host-cost normalization;
    #: the app's registry row names the config field)
    n_iters: int = 0
    #: checkpoint data-path volume summary (RunReport.data_path; empty
    #: for strategies that never touch VeloC)
    data_path: Dict[str, float] = field(default_factory=dict)

    # -- derived metrics (ideal = the scale's failure-free baseline) ----

    def efficiency(self, ideal: float) -> float:
        return ideal / self.wall_time if self.wall_time > 0 else 0.0

    def overhead_pct(self, ideal: float) -> float:
        if ideal <= 0:
            return 0.0
        return 100.0 * (self.wall_time - ideal) / ideal

    def recovery_latency(self, ideal: float) -> Optional[float]:
        """Added seconds per failure; None for failure-free runs."""
        if self.failures <= 0:
            return None
        return (self.wall_time - ideal) / self.failures

    def bucket_frac(self, name: str) -> float:
        if self.wall_time <= 0:
            return 0.0
        return self.buckets.get(name, 0.0) / self.wall_time

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunRecord":
        """Version-skew tolerant: keys this build does not know are
        ignored, fields the document lacks take their defaults."""
        return cls(**{f.name: doc[f.name]
                      for f in fields(cls) if f.name in doc})

    @classmethod
    def from_cell_result(cls, result: Any, seed: int) -> "RunRecord":
        """Build a record from a :class:`~repro.parallel.CellResult`."""
        # local import: only a campaign that ran cells has the apps
        # loaded; reading a ledger file back must not pull them in
        from repro.apps import APPS

        spec, report = result.spec, result.report
        return cls(
            label=spec.label or spec.strategy,
            strategy=spec.strategy,
            app=spec.app,
            n_ranks=spec.n_ranks,
            seed=seed,
            wall_time=report.wall_time,
            attempts=report.attempts,
            failures=result.failures,
            buckets=dict(report.buckets),
            violations=len(report.violations),
            alerts=len(report.alerts),
            divergences=len(report.divergences),
            cached=result.cached,
            host_seconds=result.host_seconds,
            n_iters=int(getattr(spec.config, APPS[spec.app].steps_field)),
            data_path=dict(report.data_path),
        )


@dataclass
class CampaignLedger:
    """The whole campaign: records, baselines, artifacts, provenance."""

    meta: Dict[str, Any] = field(default_factory=dict)
    #: failure-free baseline wall time per scale (n_ranks -> seconds)
    ideal: Dict[int, float] = field(default_factory=dict)
    runs: List[RunRecord] = field(default_factory=list)
    #: per-strategy exemplar artifacts for the HTML report
    #: ({strategy: {"timeline": monitor explain's text, "folded": text}})
    exemplars: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: progress-stream accounting ({"cells": N, "cache_hits": h, ...})
    progress: Dict[str, Any] = field(default_factory=dict)

    # -- building -------------------------------------------------------

    def add_ideal(self, n_ranks: int, wall_time: float) -> None:
        self.ideal[int(n_ranks)] = float(wall_time)

    def add_run(self, record: RunRecord) -> None:
        self.runs.append(record)

    def ideal_for(self, n_ranks: int) -> float:
        try:
            return self.ideal[int(n_ranks)]
        except KeyError:
            known = sorted(self.ideal)
            raise KeyError(
                f"no ideal baseline for {n_ranks} ranks; have {known}"
            ) from None

    # -- views ----------------------------------------------------------

    @property
    def strategies(self) -> List[str]:
        """Strategy names in first-seen order (baseline runs excluded)."""
        seen: List[str] = []
        for r in self.runs:
            if r.strategy != "none" and r.strategy not in seen:
                seen.append(r.strategy)
        return seen

    @property
    def scales(self) -> List[int]:
        return sorted({r.n_ranks for r in self.runs})

    @property
    def seeds(self) -> List[int]:
        return sorted({r.seed for r in self.runs if r.strategy != "none"})

    def group(self, strategy: str, n_ranks: Optional[int] = None
              ) -> List[RunRecord]:
        return [r for r in self.runs
                if r.strategy == strategy
                and (n_ranks is None or r.n_ranks == n_ranks)]

    def cells(self) -> int:
        """Total runs (the count the progress JSONL must reconcile to,
        baselines included -- every cell emits exactly one event)."""
        return len(self.runs)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return stamp({
            "meta": dict(self.meta),
            "ideal": {str(k): v for k, v in sorted(self.ideal.items())},
            "runs": [r.to_dict() for r in self.runs],
            "exemplars": {k: dict(v) for k, v in self.exemplars.items()},
            "progress": dict(self.progress),
        }, LEDGER_SCHEMA)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "CampaignLedger":
        if doc.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"unsupported ledger schema {doc.get('schema')!r} "
                f"(this build reads {LEDGER_SCHEMA})"
            )
        warn_on_mismatch("campaign ledger", LEDGER_SCHEMA,
                         found_version=doc.get("repro_version"))
        return cls(
            meta=dict(doc.get("meta", {})),
            ideal={int(k): float(v)
                   for k, v in doc.get("ideal", {}).items()},
            runs=[RunRecord.from_dict(r) for r in doc.get("runs", [])],
            exemplars={k: dict(v)
                       for k, v in doc.get("exemplars", {}).items()},
            progress=dict(doc.get("progress", {})),
        )

    def save(self, path: "str | pathlib.Path") -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "CampaignLedger":
        return cls.from_dict(
            json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        )


# -- scorecard ----------------------------------------------------------


def build_scorecard(ledger: CampaignLedger) -> Dict[str, Any]:
    """Per-strategy metric distributions (with bootstrap CIs) + flags."""
    strategies: Dict[str, Any] = {}
    for strategy in ledger.strategies:
        runs = ledger.group(strategy)
        eff, over, rec_lat, rec_frac, ck_frac, walls = [], [], [], [], [], []
        dirty_fracs = []
        for r in runs:
            ideal = ledger.ideal_for(r.n_ranks)
            eff.append(r.efficiency(ideal))
            over.append(r.overhead_pct(ideal))
            lat = r.recovery_latency(ideal)
            if lat is not None:
                rec_lat.append(lat)
            rec_frac.append(r.bucket_frac("recompute"))
            ck_frac.append(r.bucket_frac("checkpoint_function"))
            walls.append(r.wall_time)
            if "dirty_fraction" in r.data_path:
                dirty_fracs.append(r.data_path["dirty_fraction"])
        strategies[strategy] = {
            "n_runs": len(runs),
            "n_failed_runs": sum(1 for r in runs if r.failures > 0),
            "total_failures": sum(r.failures for r in runs),
            "total_violations": sum(r.violations for r in runs),
            "total_alerts": sum(r.alerts for r in runs),
            "divergent_cells": sum(1 for r in runs if r.divergences > 0),
            "scales": sorted({r.n_ranks for r in runs}),
            "metrics": {
                "efficiency": stats.summarize(eff),
                "overhead_pct": stats.summarize(over),
                "recovery_latency_s": stats.summarize(rec_lat),
                "recompute_frac": stats.summarize(rec_frac),
                "checkpoint_frac": stats.summarize(ck_frac),
                "wall_time_s": stats.summarize(walls),
                "dirty_fraction": stats.summarize(dirty_fracs),
            },
        }
    return stamp({
        "strategies": strategies,
        "flags": flag_anomalies(ledger),
    }, LEDGER_SCHEMA)


def flatten_scorecard(scorecard: Dict[str, Any]) -> Dict[str, float]:
    """``strategy.metric.field -> value`` rows for the diff gate."""
    out: Dict[str, float] = {}
    for strategy, entry in scorecard.get("strategies", {}).items():
        for metric, summary in entry.get("metrics", {}).items():
            if summary.get("n", 0) == 0:
                continue  # an empty distribution gates nothing
            for fld in TRACKED_FIELDS:
                out[f"{strategy}.{metric}.{fld}"] = summary[fld]
    return out


def metric_direction(flat_name: str) -> str:
    """The bad direction ("up"/"down") for a flattened scorecard row."""
    for metric, direction in TRACKED_METRICS.items():
        if f".{metric}." in flat_name:
            return direction
    return "up"


# -- anomaly flagging ---------------------------------------------------


def flag_anomalies(
    ledger: CampaignLedger,
    bench: Optional[Dict[str, Any]] = None,
    z_threshold: float = OUTLIER_Z,
    host_factor: float = HOST_ANOMALY_FACTOR,
) -> List[str]:
    """Human-readable anomaly flags (empty = nothing suspicious).

    Within-group wall-time outliers are *simulation* anomalies (a seed
    behaving unlike its siblings deserves a look); host-cost flags
    against the committed benchmark anchor are *environment* anomalies
    (the machine, not the model).
    """
    flags: List[str] = []
    for strategy in ledger.strategies:
        for scale in ledger.scales:
            runs = ledger.group(strategy, scale)
            if len(runs) < 3:
                continue  # z-scores over 2 points flag nothing honestly
            walls = [r.wall_time for r in runs]
            for i in stats.outlier_indices(walls, threshold=z_threshold):
                flags.append(
                    f"outlier: {runs[i].label} wall={walls[i]:.3f}s is "
                    f">{z_threshold:g} stdev from its "
                    f"({strategy}, {scale} ranks) group mean "
                    f"{stats.mean(walls):.3f}s"
                )
    if bench is not None:
        flags.extend(flag_host_anomalies(ledger, bench, factor=host_factor))
    violated = [r for r in ledger.runs if r.violations > 0]
    for r in violated:
        flags.append(
            f"invariant violations: {r.label} reported {r.violations} "
            f"protocol violation(s); see repro.monitor"
        )
    for r in ledger.runs:
        if r.alerts > 0:
            flags.append(
                f"slo alerts: {r.label} fired {r.alerts} live alert(s); "
                f"see repro.live"
            )
    for r in ledger.runs:
        if r.divergences > 0:
            flags.append(
                f"determinism: {r.label} diverged from its seeded replay "
                f"({r.divergences} divergence(s)); see repro.align"
            )
    return flags


def flag_host_anomalies(
    ledger: CampaignLedger,
    bench: Dict[str, Any],
    factor: float = HOST_ANOMALY_FACTOR,
) -> List[str]:
    """Flag cells whose host seconds per simulated rank-iteration exceed
    ``factor`` x the committed ``BENCH_ANCHOR`` benchmark's."""
    anchor = None
    for b in bench.get("benchmarks", []):
        if b.get("name") == BENCH_ANCHOR:
            anchor = b["stats"]["mean"] / BENCH_ANCHOR_RANK_ITERS
            break
    if anchor is None or anchor <= 0:
        return [f"host-cost anchor {BENCH_ANCHOR!r} absent from the "
                "benchmark baseline; host anomaly check skipped"]
    flags = []
    for r in ledger.runs:
        if r.cached or r.host_seconds <= 0 or r.n_iters <= 0:
            continue
        per_unit = r.host_seconds / (r.n_ranks * r.n_iters)
        if per_unit > factor * anchor:
            flags.append(
                f"host anomaly: {r.label} cost "
                f"{per_unit * 1e3:.2f} ms/rank-iter on this machine, "
                f">{factor:g}x the committed baseline "
                f"({anchor * 1e3:.2f} ms); environment, not simulation"
            )
    return flags


# -- text rendering -----------------------------------------------------


def format_scorecard(scorecard: Dict[str, Any]) -> str:
    """Aligned text scorecard (the CLI's non-HTML view)."""
    lines = ["Resilience scorecard (mean [95% CI] over runs)"]
    header = (f"  {'strategy':<18} {'runs':>4} {'eff':>6}  "
              f"{'overhead%':>22}  {'recovery(s)':>22}  "
              f"{'recompute%':>10}  {'ckpt%':>6}  "
              f"{'dirty%':>6}  {'alerts':>6}  "
              f"{'divrg':>5}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for strategy, entry in scorecard.get("strategies", {}).items():
        m = entry["metrics"]

        def ci(metric: Dict[str, float], scale: float = 1.0) -> str:
            if metric["n"] == 0:
                return "--"
            return (f"{metric['mean'] * scale:.2f} "
                    f"[{metric['ci_lo'] * scale:.2f}, "
                    f"{metric['ci_hi'] * scale:.2f}]")

        def pct(metric: Dict[str, float]) -> str:
            if metric.get("n", 0) == 0:
                return "--"
            return f"{metric['mean'] * 100:.1f}%"

        lines.append(
            f"  {strategy:<18} {entry['n_runs']:>4} "
            f"{m['efficiency']['mean']:>6.2f}  "
            f"{ci(m['overhead_pct']):>22}  "
            f"{ci(m['recovery_latency_s']):>22}  "
            f"{m['recompute_frac']['mean'] * 100:>9.2f}%  "
            f"{m['checkpoint_frac']['mean'] * 100:>5.2f}%  "
            f"{pct(m.get('dirty_fraction', {'n': 0})):>6}  "
            f"{entry.get('total_alerts', 0):>6}  "
            f"{entry.get('divergent_cells', 0):>5}"
        )
    flags = scorecard.get("flags", [])
    if flags:
        lines.append("")
        lines.append(f"  {len(flags)} anomaly flag(s):")
        for flag in flags:
            lines.append(f"    ! {flag}")
    return "\n".join(lines)
