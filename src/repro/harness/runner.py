"""Job runner: executes one experiment configuration to completion.

One way in, one way out: :func:`run_job` runs any application registered
in :data:`repro.apps.APPS` under any strategy with any observers (the
per-application names are bindings of it), and the :class:`RunReport` it
returns serialises itself -- ``to_dict`` / ``from_dict`` are derived from
the dataclass's fields, and are what the run cache stores.

Reproduces the paper's measurement methodology (Section VI-C):

- the reported time is the ``time mpirun`` equivalent: everything from job
  launch to the last process exiting, *including* relaunches for
  fail-restart strategies;
- per-rank in-app times are accounted by category; "Other" is the
  difference between the wall clock and the mean accounted time ("data
  initialization, MPI job startup/teardown, and finalization time");
- failures kill one rank ~95% of the way between two checkpoints; for
  non-Fenix strategies -- and for a Fenix job with no spare left -- the
  whole job is then torn down and relaunched on the same cluster (PFS
  checkpoints survive; node-local scratch does not).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from repro.apps import resolve_app
from repro.fenix import FenixSystem, IMRStore, SpareExhaustionError
from repro.fenix.roles import Role
from repro.harness.recompute import RecomputeTracker
from repro.harness.strategies import StrategySpec, resolve_strategy
from repro.live.rules import (
    Alert,
    LiveSession,
    RuleSet,
    load_rules,
)
from repro.monitor import (
    InvariantViolation,
    InvariantViolationError,
    MonitorSuite,
)
from repro.mpi import World
from repro.mpi.errors import MPIError
from repro.sim import Cluster, ClusterSpec, FailurePlan, NoFailures
from repro.sim.failures import RankKilledError
from repro.sim.trace import Trace
from repro.telemetry import Telemetry
from repro.util.errors import ConfigError, ReproError, SimulationError
from repro.veloc import VeloCService


@dataclass(frozen=True)
class JobCosts:
    """Modelled fixed job costs (all land in the paper's "Other")."""

    mpirun_launch: float = 2.0
    per_node_launch: float = 0.02
    mpi_init: float = 0.3
    mpi_finalize: float = 0.1
    #: post-failure cleanup before a relaunch can begin
    teardown: float = 1.5
    #: non-communicative application init (config files, allocation, ...)
    app_noncomm_init: float = 0.2
    #: communicative application init (re-done by recovered ranks)
    app_comm_init: float = 0.3


@dataclass(frozen=True)
class ExperimentEnv:
    """Everything fixed across one experiment sweep."""

    cluster_spec: ClusterSpec
    costs: JobCosts = field(default_factory=JobCosts)
    n_spares: int = 1
    ranks_per_node: int = 1
    #: stage VeloC flushes through the burst buffer (requires a cluster
    #: spec with one)
    use_burst_buffer: bool = False
    #: copy-on-write incremental VeloC snapshots (memcpy/flush cost
    #: scales with the dirty fraction); False restores the full-copy path
    veloc_incremental: bool = True


@dataclass
class RunReport:
    """Outcome of one job execution."""

    strategy: str
    app: str
    n_ranks: int
    wall_time: float
    attempts: int
    failures: int
    #: mean per-rank accounted seconds by bucket
    buckets: Dict[str, float]
    #: application results of the final (successful) attempt
    results: Dict[int, Any]
    #: platform counters (messages, bytes over NICs / PFS / burst buffer)
    platform: Dict[str, float] = field(default_factory=dict)
    #: metrics summary (merged + per-rank) when the run was telemetered
    telemetry: Optional[Dict] = None
    #: protocol invariant violations found by the monitor suite (empty
    #: when the run was not monitored or came back clean)
    violations: List[Any] = field(default_factory=list)
    #: exact per-rank time ledger (repro.profile) when profiling was on
    profile: Optional[Dict] = None
    #: checkpoint data-path volume (modelled bytes summed over every
    #: VeloC client and attempt): ``checkpoints``, ``checkpoint_bytes``
    #: (logical), ``dirty_bytes`` (memcpy'd and flushed), plus the
    #: derived ``dirty_fraction``
    data_path: Dict[str, float] = field(default_factory=dict)
    #: SLO alerts fired by the live rules engine (repro.live), when the
    #: run carried a rules file; empty otherwise
    alerts: List[Any] = field(default_factory=list)
    #: non-fatal observability problems surfaced to the caller (e.g. a
    #: trace listener that raised and was isolated)
    warnings: List[str] = field(default_factory=list)
    #: determinism-audit findings (repro.align divergence dicts between
    #: the run and its seeded replay, plus one ``run_report`` entry when
    #: the two reports disagree); empty when the audit was off or the
    #: replay aligned record-for-record and reported the same run
    divergences: List[Dict] = field(default_factory=list)

    @property
    def accounted(self) -> float:
        return sum(self.buckets.values())

    @property
    def other(self) -> float:
        """Job time not visible inside the application (the paper's
        "Other": startup, teardown, finalization, repair waits)."""
        return max(0.0, self.wall_time - self.accounted)

    def category(self, name: str) -> float:
        return self.buckets.get(name, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """Every field but ``results`` (live per-rank objects), in
        declaration order and JSON-ready.  Derived from the dataclass, so
        a new field is stored, cached and reloaded without naming it
        anywhere else; nested dicts keep their order, which is what lets
        a cache hit re-serialize byte for byte."""
        doc = {f.name: getattr(self, f.name)
               for f in fields(self) if f.name != "results"}
        doc["violations"] = [v.to_dict() for v in self.violations]
        doc["alerts"] = [a.to_dict() for a in self.alerts]
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict` (``results`` comes back empty).
        Strict: a missing field raises ``KeyError``, so a stale or
        foreign document is rejected rather than half-filled."""
        doc = dict(
            doc, results={},
            violations=[InvariantViolation.from_dict(v)
                        for v in doc["violations"]],
            alerts=[Alert.from_dict(a) for a in doc["alerts"]],
        )
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


def _all_settled(engine, procs) -> "Any":
    """Event that fires when every process has finished (ok or failed)."""
    ev = engine.event(name="all_settled")
    remaining = len(procs)
    if remaining == 0:
        ev.succeed(None)
        return ev

    def on_exit(_inner_ev):
        nonlocal remaining
        remaining -= 1
        if remaining == 0 and not ev.triggered:
            ev.succeed(None)

    for proc in procs:
        proc.add_callback(on_exit)
    return ev


class JobRunner:
    """Drives one job (with relaunches) on a fresh cluster."""

    def __init__(
        self,
        env: ExperimentEnv,
        strategy: StrategySpec,
        n_ranks: int,
        plan: FailurePlan,
        build_main: Callable[..., Callable],
        app_name: str,
        telemetry: Optional[Telemetry] = None,
        trace_max_records: Optional[int] = None,
        strict_monitor: bool = False,
        monitor: Optional[MonitorSuite] = None,
        profile: bool = False,
        rules: "Optional[RuleSet | str]" = None,
        trace_sink: Optional[Any] = None,
        capture_trace: bool = False,
    ) -> None:
        self.env = env
        self.strategy = strategy
        self.n_ranks = n_ranks
        self.plan = plan
        self.build_main = build_main
        self.app_name = app_name
        self.n_spares = env.n_spares if strategy.fenix else 0
        n_total = n_ranks + self.n_spares
        needed_nodes = -(-n_total // env.ranks_per_node)
        if env.cluster_spec.n_nodes < needed_nodes:
            raise ConfigError(
                f"cluster has {env.cluster_spec.n_nodes} nodes; "
                f"{needed_nodes} needed"
            )
        self.n_total = n_total
        self.telemetry = telemetry
        if profile and (telemetry is None or not telemetry.enabled):
            raise ConfigError("profile=True requires enabled telemetry")
        self.profile = profile
        self.strict_monitor = strict_monitor
        self.monitor = monitor
        if self.monitor is None and self.strict_monitor:
            self.monitor = MonitorSuite()
        self.rules = load_rules(rules) if isinstance(rules, str) else rules
        # the live layer: windowed series + SLO rules evaluated in-run
        self.live: Optional[LiveSession] = (
            LiveSession(rules=self.rules, monitor=self.monitor)
            if self.rules is not None else None
        )
        # everything that subscribes to the run's trace, in attach order:
        # the live layer after the monitor, so invariant_violations rules
        # see the suite's findings the moment they exist; then the
        # streaming flight recorder (e.g. monitor.trace_io.JsonlTraceSink:
        # records hit disk as they are emitted; the caller closes it)
        subscribers = [s for s in (self.monitor, self.live, trace_sink)
                       if s is not None]
        # a subscriber is a reason to record -- asked of the very list
        # attached below, so a new observer cannot be left out of it --
        # and so is an explicit capture.  A telemetered run also records
        # the legacy event trace so the exporters can interleave both
        # record kinds on one timeline; ``trace_max_records`` switches it
        # to ring-buffer mode so long campaigns cannot grow the record
        # list without bound
        trace = Trace(enabled=True, max_records=trace_max_records) if (
            subscribers or capture_trace
            or (telemetry is not None and telemetry.enabled)
        ) else None
        self.trace = trace
        self.cluster = Cluster(env.cluster_spec, trace=trace,
                               telemetry=telemetry)
        if trace is not None and telemetry is not None:
            telemetry.trace = trace
        for subscriber in subscribers:
            subscriber.attach(trace)
        self.service = VeloCService(
            self.cluster, use_burst_buffer=env.use_burst_buffer
        )
        self.tracker = RecomputeTracker()
        self.totals: Dict[str, float] = {}
        self.data_totals: Dict[str, float] = {}
        self.results: Dict[int, Any] = {}
        self.attempts = 0
        self.finish_time: Optional[float] = None

    # -- public ------------------------------------------------------------

    def run(self) -> RunReport:
        engine = self.cluster.engine
        driver = engine.process(self._driver(), name="job_driver")
        try:
            engine.run()
        except SimulationError as wrapped:
            # the engine quotes a dead process's error by name; what
            # stopped the job is the typed error its own driver died of
            cause = wrapped.__cause__
            if isinstance(cause, ReproError) and driver.exception is cause:
                raise cause
            raise
        engine.close()
        buckets = {k: v / self.n_ranks for k, v in self.totals.items()}
        # wall time ends when the job completes; stray timers (failure
        # watchdogs armed far in the future) may drain later
        wall = self.finish_time if self.finish_time is not None else engine.now
        tel = self.telemetry
        violations = []
        if self.monitor is not None:
            self.monitor.finish()
            violations = self.monitor.violations
            if self.strict_monitor and violations:
                raise InvariantViolationError(violations)
        alerts: List[Any] = []
        if self.live is not None:
            alerts = self.live.finish(t=wall)
        warnings: List[str] = []
        if self.trace is not None and self.trace.listener_errors:
            warnings.append(
                f"{self.trace.listener_errors} trace listener exception(s) "
                f"isolated (observers never alter the run); last: "
                f"{self.trace.last_listener_error}"
            )
        profile_dict = None
        if self.profile:
            # local import: repro.profile consumes telemetry, the runner
            # merely hands the stream over, so no import cycle
            from repro.profile.ledger import build_ledger

            profile_dict = build_ledger(
                tel, trace=self.trace, wall_time=wall
            ).to_dict()
        return RunReport(
            strategy=self.strategy.name,
            app=self.app_name,
            n_ranks=self.n_ranks,
            wall_time=wall,
            attempts=self.attempts,
            failures=self.plan.expected_failures(),
            buckets=buckets,
            results=dict(self.results),
            platform=self._platform_counters(),
            telemetry=(
                tel.metrics_summary() if tel is not None and tel.enabled
                else None
            ),
            violations=violations,
            profile=profile_dict,
            data_path=self._data_path_summary(),
            alerts=alerts,
            warnings=warnings,
        )

    def _platform_counters(self) -> Dict[str, float]:
        cluster = self.cluster
        counters = {
            "network_messages": float(cluster.network.messages_sent),
            "network_bytes": cluster.network.bytes_sent,
            "pfs_bytes_written": cluster.pfs.bytes_written,
            "pfs_bytes_read": cluster.pfs.bytes_read,
        }
        if cluster.burst_buffer is not None:
            counters["bb_bytes_written"] = cluster.burst_buffer.bytes_written
            counters["bb_bytes_read"] = cluster.burst_buffer.bytes_read
        return counters

    # -- internals -----------------------------------------------------------

    def _launch_cost(self) -> float:
        costs = self.env.costs
        return costs.mpirun_launch + self.cluster.n_nodes * costs.per_node_launch

    def _driver(self) -> Generator:
        engine = self.cluster.engine
        tel = engine.telemetry
        costs = self.env.costs
        with tel.span("job", "job.launch"):
            yield engine.timeout(self._launch_cost())
        while True:
            self.attempts += 1
            self.results.clear()
            if tel.enabled:
                tel.instant("job", "job.attempt", attempt=self.attempts)
            world = World(
                self.cluster,
                self.n_total,
                ranks_per_node=self.env.ranks_per_node,
                name=f"{self.app_name}.attempt{self.attempts}",
            )
            imr = IMRStore(world)
            system = (
                FenixSystem(world, n_spares=self.n_spares)
                if self.strategy.fenix
                else None
            )
            main = self.build_main(
                runner=self,
                imr=imr,
                plan=self.plan,
                results=self.results,
                tracker=self.tracker,
            )
            procs = []
            for rank in range(self.n_total):
                procs.append(
                    world.spawn(
                        rank,
                        self._rank_wrapper(world, system, rank, main),
                        failure_plan=self.plan,
                    )
                )
            if system is None:
                self._arm_abort(world)
            yield _all_settled(engine, procs)
            self._collect_accounts(world)
            self._check_errors(world)
            world.close()
            # one rule for every strategy: the job is done when each of its
            # slots has a result from this attempt (cleared at its start)
            missing = set(range(self.n_ranks)) - self.results.keys()
            if not missing:
                self.finish_time = engine.now
                if tel.enabled:
                    tel.instant("job", "job.done", attempts=self.attempts)
                break
            if not world.dead:
                raise ReproError(
                    f"attempt {self.attempts} ended with no rank lost and "
                    f"no result for slot(s) {sorted(missing)}"
                )
            # and one recovery: teardown, wipe node-local state, relaunch
            # (the PFS survives) -- a fail-restart job after any death, a
            # Fenix job after the death it had no spare left for
            self.cluster.wipe_scratch()
            with tel.span("job", "job.teardown", attempt=self.attempts):
                yield engine.timeout(costs.teardown)
            with tel.span("job", "job.relaunch", attempt=self.attempts):
                yield engine.timeout(self._launch_cost())

    def _rank_wrapper(
        self, world: World, system: Optional[FenixSystem], rank: int, main
    ) -> Generator:
        costs = self.env.costs
        ctx = world.context(rank)
        # startup: MPI_Init + non-communicative app init (uncharged -> Other)
        yield from ctx.sleep(costs.mpi_init + costs.app_noncomm_init)

        def main_with_init(role, handle):
            if role in (Role.INITIAL, Role.RECOVERED):
                yield from handle.ctx.sleep(costs.app_comm_init)
            result = yield from main(role, handle)
            return result

        if system is not None:
            yield from system.run(ctx, main_with_init)
        else:
            handle = world.comm_world_handle(rank)
            yield from main_with_init(Role.INITIAL, handle)
        yield from ctx.sleep(costs.mpi_finalize)

    def _arm_abort(self, world: World) -> None:
        """Without Fenix, mpirun kills the whole job shortly after any
        rank dies."""
        engine = self.cluster.engine

        def abort(_):
            for proc in world.procs.values():
                if proc.alive:
                    proc.kill(RankKilledError(-1, "job aborted by launcher"))

        # the launcher subscribes one zero-delay hop after the spawns; the
        # watch is the world's own event, so World.close() drops it
        engine.call_soon(lambda _: world.failure_watch().add_callback(
            lambda _: engine.call_later(0.05, abort)))

    def _collect_accounts(self, world: World) -> None:
        for ctx in world.contexts.values():
            for bucket, value in ctx.account.buckets.items():
                self.totals[bucket] = self.totals.get(bucket, 0.0) + value
            for client in ctx.user.get("veloc.clients", ()):
                for stat, value in client.stats.items():
                    self.data_totals[stat] = (
                        self.data_totals.get(stat, 0.0) + value
                    )

    def _data_path_summary(self) -> Dict[str, float]:
        out = dict(self.data_totals)
        out.pop("novel_bytes", None)  # == dirty_bytes, see VeloCClient.stats
        total = out.get("checkpoint_bytes", 0.0)
        if total > 0:
            out["dirty_fraction"] = out["dirty_bytes"] / total
        return out

    def _check_errors(self, world: World) -> None:
        """Post-failure MPI errors are expected, and so is Fenix giving
        the job up for want of a spare (the relaunch path takes over);
        anything else is a bug."""
        for _rank, exc in world.errors:
            if not isinstance(
                    exc, (MPIError, RankKilledError, SpareExhaustionError)):
                raise exc


#: RunReport fields a seeded replay must reproduce bit for bit
_REPLAYED_FIELDS = ("wall_time", "attempts", "buckets", "platform",
                    "data_path")


def _report_drift(report: RunReport, replayed: RunReport) -> List[str]:
    """Names of the report fields a run and its replay disagree on:
    the simulated statistics, and ``results`` when any rank's result
    arrays differ (``np.array_equal``; other result entries are live
    objects and are not compared)."""
    names = [name for name in _REPLAYED_FIELDS
             if getattr(report, name) != getattr(replayed, name)]
    ours, theirs = report.results, replayed.results
    if ours.keys() != theirs.keys() or any(
        isinstance(value, np.ndarray)
        and not np.array_equal(value, theirs[rank].get(key))
        for rank, outcome in ours.items()
        for key, value in outcome.items()
    ):
        names.append("results")
    return names


def _audit_replay(report: RunReport, trace: Trace, replayed: RunReport,
                  replay_trace: Trace) -> None:
    """Align a run with its seeded replay, compare the two reports, and
    attach what differs to ``report.divergences``."""
    # lazy import: repro.align consumes traces, the harness only hands
    # them over, so the package import graph stays acyclic
    from repro.align.engine import Divergence, audit_traces

    report.divergences = audit_traces(trace, replay_trace)
    # the alignment compares record structure and non-volatile fields,
    # neither simulated times nor what the job computed: the two reports
    # carry those
    drifted = _report_drift(report, replayed)
    if drifted:
        report.divergences.append(Divergence(
            category="value",
            layer="app",
            key=(None, "run_report", None, 0),
            time=min(report.wall_time, replayed.wall_time),
            summary=(f"run_report value drift on {', '.join(drifted)} "
                     f"between the run and its seeded replay"),
            briefs=[f"{run}: wall_time={r.wall_time!r} "
                    f"attempts={r.attempts}"
                    for run, r in (("A", report), ("B", replayed))],
            fields=drifted,
        ).to_dict())
    if report.divergences:
        report.warnings.append(
            f"determinism audit: {len(report.divergences)} divergence(s) "
            f"between the run and its seeded replay (first: "
            f"{report.divergences[0]['summary']}); see repro.align"
        )


# -- the front door -----------------------------------------------------------


def run_job(
    app: str,
    env: ExperimentEnv,
    strategy_name: str,
    n_ranks: int,
    cfg: Any,
    ckpt_interval: int,
    plan: Optional[FailurePlan] = None,
    *,
    determinism_audit: bool = False,
    **observe: Any,
) -> RunReport:
    """Run one job of a registered application (:data:`repro.apps.APPS`)
    under a strategy; returns the report.

    ``observe`` is :class:`JobRunner`'s observer keywords (``telemetry``,
    ``trace_max_records``, ``strict_monitor``, ``monitor``, ``profile``,
    ``rules``, ``trace_sink``), passed through untouched.

    ``determinism_audit=True`` records the run's trace, replays the
    identical spec, aligns both traces (:mod:`repro.align`), compares
    the two reports (simulated statistics and result arrays), and
    attaches the divergences to ``RunReport.divergences``.
    """
    row = resolve_app(app)
    strategy = resolve_strategy(strategy_name)
    if row.kr_only and strategy.checkpointing and not strategy.kr:
        raise ConfigError(
            f"{app} is only integrated through Kokkos Resilience"
        )
    plan = plan if plan is not None else NoFailures()
    job = (env, strategy, n_ranks)
    build_main = partial(row.build_main, cfg, strategy, ckpt_interval)
    if not determinism_audit:
        return JobRunner(*job, plan, build_main, app, **observe).run()
    # the failure plan is deep-copied *before* the primary run because
    # live plans are stateful; both executions therefore see identical
    # injection schedules, which is what makes zero divergences the
    # correct expectation for a deterministic simulator
    replay_plan = copy.deepcopy(plan)
    primary = JobRunner(*job, plan, build_main, app,
                        capture_trace=True, **observe)
    report = primary.run()
    # the replay is the same construction with no observers: it must not
    # double-feed the caller's telemetry, monitor, rules or sinks
    replay = JobRunner(*job, replay_plan, build_main, app,
                       trace_max_records=observe.get("trace_max_records"),
                       capture_trace=True)
    _audit_replay(report, primary.trace, replay.run(), replay.trace)
    return report


#: the per-application names the front door used to be written under,
#: kept because the frozen ``benchmarks/e2e/adapter.py`` imports them
#: (ROADMAP item 9 moves it to ``run_job``) and most tests call them
run_heatdis_job = partial(run_job, "heatdis")
run_minimd_job = partial(run_job, "minimd")
