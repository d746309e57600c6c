"""Kill-point enumeration over one small job (test-side helper).

The engine is deterministic and :class:`~repro.sim.failures.TimedFailure`
kills at an exact simulated instant, so "every place a kill can land" is a
finite list: record the job once, take each distinct instant at which a
protocol-critical record was emitted, and kill every world rank -- members
*and* idle spares -- just before, at, and just after it.  :func:`check`
holds one such run to oracles the repo already has: every slot's result
present, each grid (MiniMD: the positions) bitwise equal to the
failure-free run's, zero monitor violations, no relaunch while a spare is
left; and the only acceptable
non-success is one of :data:`TYPED_STOPS`, the errors docs/PROTOCOLS.md
("How a job can stop") names -- never a deadlock, never a short result.

Which job is an argument (:class:`Job`): :data:`HEATDIS` is ROADMAP item
1's reproducer -- Heatdis on 4 ranks, 30 iterations, a checkpoint every 10
(three checkpoints), 16 MB per rank; :data:`HEATDIS_5` is the same on 5
ranks, where the odd rank out pairs asymmetrically with rank 0; and
:data:`MINIMD` checkpoints 39 members per version instead of 2.
"""

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.apps import HeatdisConfig, MiniMDConfig
from repro.experiments.common import paper_env
from repro.fenix import FenixError, SpareExhaustionError
from repro.harness import run_job
from repro.monitor import MonitorSuite
from repro.sim.failures import TimedFailure
from repro.sim.trace import TraceListener, TraceRecord
from repro.util.errors import ConfigError, DeadlockError, ReproError
from repro.vocabulary import KILL_KINDS, PER_ITERATION_KINDS, REENTRY_KINDS



class Job(NamedTuple):
    """One application run: ``run_job``'s arguments, and the result field
    the failure-free run is compared on."""

    app: str
    cfg: object
    n_ranks: int
    interval: int
    field: str


HEATDIS = Job("heatdis", HeatdisConfig(n_iters=30, modeled_bytes_per_rank=16e6),
              n_ranks=4, interval=10, field="grid")
HEATDIS_5 = HEATDIS._replace(n_ranks=5)
MINIMD = Job("minimd", MiniMDConfig(n_steps=12), n_ranks=4, interval=4,
             field="x")

#: how far "just before" and "just after" a record's instant are
EPS = 1e-7
FENIX_STRATEGIES = ("fenix_kr_veloc", "fenix_kr_imr", "fenix_veloc")
#: every way a job may stop short of success (docs/PROTOCOLS.md names the
#: same three; ``test_the_allow_list_is_the_documented_one`` compares)
TYPED_STOPS = (SpareExhaustionError, FenixError, ConfigError)

Kill = Tuple[int, float]  # (world rank, simulated time)


class Outcome(NamedTuple):
    """What one run came to: ``ok``, ``typed`` (a documented stop), or the
    oracle it broke (``deadlock``, ``untyped``, ``short``, ``wrong-grid``,
    ``violation``, ``attempts``)."""

    verdict: str
    detail: str = ""


class _Recorder(TraceListener):
    def __init__(self) -> None:
        super().__init__()
        self.records: List[TraceRecord] = []

    def feed(self, rec: TraceRecord) -> None:
        self.records.append(rec)


def run(job: Job, strategy: str, n_spares: int, kills: Sequence[Kill] = (),
        plan=None, **observe):
    """``job`` under ``strategy`` with ``n_spares`` spares and these kills
    (or any other failure ``plan``)."""
    env = paper_env(job.n_ranks + n_spares, n_spares=n_spares, pfs_servers=2)
    if kills:
        plan = TimedFailure(list(kills))
    return run_job(job.app, env, strategy, job.n_ranks, job.cfg, job.interval,
                   plan=plan, **observe)


def record(job: Job, strategy: str, n_spares: int, kills: Sequence[Kill] = ()):
    """``(report, records)`` of one run."""
    sink = _Recorder()
    report = run(job, strategy, n_spares, kills, strict_monitor=False,
                 trace_sink=sink)
    return report, sink.records


def instants(records: Iterable[TraceRecord]) -> List[float]:
    """Every distinct instant a protocol-critical record was emitted at
    (a per-iteration record marks no protocol step)."""
    return sorted({rec.time for rec in records
                   if rec.kind not in PER_ITERATION_KINDS})


def kill_points(times: Iterable[float], n_world: int) -> List[Kill]:
    """Each world rank killed just before, at and just after each instant."""
    return [(rank, t + offset) for t in times for rank in range(n_world)
            for offset in (-EPS, 0.0, EPS)]


def recovery_window(records: Sequence[TraceRecord]) -> List[float]:
    """The instants of a one-kill run from the kill to the first completed
    protected step after it (kill -> re-entry); empty when the kill never
    landed (the rank had already exited)."""
    kill = next((r for r in records if r.kind in KILL_KINDS), None)
    if kill is None:
        return []
    after = [r for r in records if r.seq >= kill.seq]
    end = next((r.time for r in after[1:] if r.kind in REENTRY_KINDS),
               after[-1].time)
    return instants(r for r in after if r.time <= end)


def check(job: Job, reference, strategy: str, n_spares: int,
          kills: Sequence[Kill], attempts: Optional[int] = 1) -> Outcome:
    """Run ``job`` with ``kills`` and hold it to the oracles.

    ``reference`` is the failure-free report; ``attempts`` the number of
    launches the run must report (None: do not check)."""
    try:
        report = run(job, strategy, n_spares, kills, monitor=MonitorSuite(),
                     strict_monitor=False)
    except TYPED_STOPS as exc:
        return Outcome("typed", f"{type(exc).__name__}: {exc}")
    except ReproError as exc:
        return Outcome(
            "deadlock" if isinstance(exc, DeadlockError) else "untyped",
            f"{type(exc).__name__}: {exc}"[:200])
    if sorted(report.results) != list(range(job.n_ranks)):
        return Outcome("short", f"results for slots {sorted(report.results)}")
    for slot in range(job.n_ranks):
        if not np.array_equal(report.results[slot][job.field],
                              reference.results[slot][job.field]):
            return Outcome("wrong-grid", f"slot {slot}")
    if report.violations:
        first = report.violations[0]
        return Outcome("violation",
                       f"{first.monitor}/{first.rule}: {first.message}")
    if attempts is not None and report.attempts != attempts:
        return Outcome("attempts", f"{report.attempts}, expected {attempts}")
    return Outcome("ok")
