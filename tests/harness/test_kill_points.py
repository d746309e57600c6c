"""Every place one kill can land, and a sample of where a second can.

``tests/core/test_failure_sweep.py`` proves bitwise exactness for kills at
*iteration boundaries* of members.  The kills here are the rest: between
boundaries, on an idle spare, with no spare left, after the last boundary
(``tests/harness/kill_points.py`` describes the enumeration and the
oracles).  The matrices run on every push; each point an earlier tree got
wrong is also a named test below with its coordinates, so the reproducer
survives a change of the enumeration.

CI's ``kill-points`` job runs the same module with ``--kill-points-wide``
(defined in ``tests/conftest.py``): all three Fenix strategies x 0/1/2
spares x every instant, MiniMD in full, 300 two-kill examples, and the
JSONL trace of every failing point left under ``kill-points-failures/``.
"""

import functools
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fenix import FenixSystem, SpareExhaustionError
from repro.monitor.trace_io import JsonlTraceSink
from repro.mpi import World
from repro.sim import Cluster, ClusterSpec, IterationFailure
from repro.util.errors import ConfigError

from tests.harness import kill_points as K

ROOT = pathlib.Path(__file__).resolve().parents[2]
FAILURES_DIR = ROOT / "kill-points-failures"


@pytest.fixture
def wide(request):
    return request.config.getoption("--kill-points-wide")


@functools.lru_cache(maxsize=None)
def reference(strategy, n_spares, job=K.HEATDIS):
    """``(report, records)`` of the failure-free job, recorded once."""
    report, records = K.record(job, strategy, n_spares)
    assert K.check(job, report, strategy, n_spares, ()).verdict == "ok"
    return report, records


def job_done_at(records):
    """The instant Fenix_Finalize completed: the last arrival's."""
    return max(r.time for r in records if r.kind == "finalize_arrive")


def launches_without_a_spare(kill, records):
    """Launches a one-kill, zero-spare run must report: two iff the kill
    beat the victim's own arrival at Fenix_Finalize -- it stores its
    result on the way there, and a job with every slot's result is done
    however its ranks went.  At the very instant of the arrival, either
    (None: not checked)."""
    rank, t = kill
    arrival = next(r.time for r in records
                   if r.kind == "finalize_arrive" and r["rank"] == rank)
    if abs(t - arrival) < K.EPS / 2:
        return None
    return 2 if t < arrival else 1


def problems_of(strategy, n_spares, points, job=K.HEATDIS):
    """``{kill: outcome}`` of every point that is not ``ok``."""
    report, records = reference(strategy, n_spares, job)
    found = {}
    for kill in points:
        outcome = K.check(job, report, strategy, n_spares, [kill], attempts=(
            1 if n_spares else launches_without_a_spare(kill, records)))
        if outcome.verdict != "ok":
            found[kill] = outcome
    return found


def every_point(strategy, n_spares, job=K.HEATDIS):
    _, records = reference(strategy, n_spares, job)
    return K.kill_points(K.instants(records), job.n_ranks + n_spares)


def assert_none(problems, strategy, n_spares, wide, job=K.HEATDIS):
    """Fail listing ``problems``; in the wide run, first leave each one's
    flight-recorder trace behind so the counterexample arrives with it."""
    what = f"{job.app} {job.n_ranks}r {strategy}, {n_spares} spare(s)"
    if problems and wide:
        FAILURES_DIR.mkdir(exist_ok=True)
        for kills in list(problems)[:10]:
            kills = [kills] if isinstance(kills[0], int) else list(kills)
            name = "-".join(f"r{rank}@{t!r}" for rank, t in kills)
            with JsonlTraceSink(str(FAILURES_DIR / (
                    f"{job.app}-{job.n_ranks}r-{strategy}-{n_spares}spares-"
                    f"{name}.trace.jsonl"))) as sink:
                try:
                    K.run(job, strategy, n_spares, kills, trace_sink=sink)
                except Exception:  # the trace up to the error is the point
                    pass
    assert not problems, (
        f"{what}: {len(problems)} kill point(s) broke an oracle:\n"
        + "\n".join(f"  {kill}: {o.verdict} -- {o.detail}"
                    for kill, o in list(problems.items())[:20]))


# -- the matrices ------------------------------------------------------------


def pytest_generate_tests(metafunc):
    if metafunc.function is test_one_kill_anywhere_with_a_spare_left:
        metafunc.parametrize("strategy, n_spares", (
            [(s, n) for s in K.FENIX_STRATEGIES for n in (1, 2)]
            if metafunc.config.getoption("--kill-points-wide")
            else [("fenix_kr_veloc", 1), ("fenix_kr_imr", 1)]))


def test_one_kill_anywhere_with_a_spare_left(strategy, n_spares, wide):
    """255 + 195 runs: every instant x every world rank (the idle spares
    too) x {just before, at, just after}.  Nothing but success."""
    assert_none(problems_of(strategy, n_spares,
                            every_point(strategy, n_spares)),
                strategy, n_spares, wide)


def test_imr_tears_no_version(wide):
    """A kill between an owner's ``imr_store`` of the first and of the
    last member of a version left copies the replacement took for a
    checkpoint: ``FenixError("IMR: no copy of member ...")`` at 36 of the
    342 points on 5 ranks (the odd rank out pairs asymmetrically with
    rank 0; 24 of 195 on 4).  A version is restorable once committed."""
    job = K.HEATDIS_5
    assert_none(problems_of("fenix_kr_imr", 1,
                            every_point("fenix_kr_imr", 1, job), job),
                "fenix_kr_imr", 1, wide, job)


def test_imr_tears_no_version_of_39_members(wide):
    """MiniMD checkpoints 39 members per version where Heatdis has 2, so
    most of a checkpoint is "between the first member and the last": 152
    of the 328 kills at a record instant stopped as above.  One rank per
    instant in rotation, at the instant (wide: every rank, and just
    before and after)."""
    job = K.MINIMD
    if wide:
        points = every_point("fenix_kr_imr", 1, job)
    else:
        _, records = reference("fenix_kr_imr", 1, job)
        points = [(i % (job.n_ranks + 1), t)
                  for i, t in enumerate(K.instants(records))]
    assert_none(problems_of("fenix_kr_imr", 1, points, job),
                "fenix_kr_imr", 1, wide, job)


@pytest.mark.parametrize("strategy", K.FENIX_STRATEGIES)
def test_one_kill_with_no_spare_relaunches(strategy, wide):
    """Zero spares: the dozen instants around the second checkpoint and
    around Fenix_Finalize (every instant in the wide run).  The job gives
    itself up, the harness relaunches it, the grid is the failure-free
    one; a kill that lands after completion changes nothing."""
    _, records = reference(strategy, 0)
    times = K.instants(records)
    n_ranks, interval = K.HEATDIS.n_ranks, K.HEATDIS.interval
    if not wide:
        second = next(r.time for r in records
                      if r.fields.get("version") == 2 * interval)
        around = [times.index(second), times.index(job_done_at(records))]
        times = sorted({t for i in around for t in times[max(0, i - 3):i + 3]})
    points = K.kill_points(times, n_ranks)
    if not wide:  # one rank per instant, in rotation
        points = [p for i, p in enumerate(points)
                  if p[0] == (i // (3 * n_ranks)) % n_ranks]
    assert_none(problems_of(strategy, 0, points), strategy, 0, wide)


def test_a_second_kill_inside_the_first_ones_recovery_window(wide):
    """Two spares, two kills: the first anywhere, the second at a record
    instant between it and the first completed step after re-entry --
    inside the repair gate, between revoke and agree, mid-``recover()``,
    on the just-activated spare.  IMR may stop typed (both buddies of a
    pair); nothing else may do anything but succeed, in one launch."""
    n_spares, n_world = 2, K.HEATDIS.n_ranks + 2
    offsets = st.sampled_from([-K.EPS, 0.0, K.EPS])
    windows = {}

    def window(strategy, first):
        if (strategy, first) not in windows:
            try:
                records = K.record(K.HEATDIS, strategy, n_spares, [first])[1]
            except K.TYPED_STOPS:
                records = ()
            windows[strategy, first] = K.recovery_window(records)
        return windows[strategy, first]

    # the tier-1 sample is a fixed one; CI's is drawn afresh every run
    @settings(max_examples=300 if wide else 30, deadline=None,
              derandomize=not wide, database=None)
    @given(strategy=st.sampled_from(K.FENIX_STRATEGIES),
           ranks=st.tuples(*[st.integers(0, n_world - 1)] * 2),
           picks=st.tuples(*[st.integers(0, 10**6)] * 2),
           shifts=st.tuples(offsets, offsets))
    def second_kill(strategy, ranks, picks, shifts):
        report, records = reference(strategy, n_spares)
        times = K.instants(records)
        first = (ranks[0], times[picks[0] % len(times)] + shifts[0])
        inside = window(strategy, first)
        if not inside:  # the first kill never landed: nothing to be inside
            return
        kills = (first, (ranks[1], inside[picks[1] % len(inside)] + shifts[1]))
        outcome = K.check(K.HEATDIS, report, strategy, n_spares, kills)
        if not (outcome.verdict == "typed" and "imr" in strategy):
            assert_none({} if outcome.verdict == "ok" else {kills: outcome},
                        strategy, n_spares, wide)

    second_kill()


def test_the_allow_list_is_the_documented_one():
    """docs/PROTOCOLS.md "How a job can stop" names the typed errors; the
    enumerator accepts those and no other."""
    text = (ROOT / "docs" / "PROTOCOLS.md").read_text(encoding="utf-8")
    section = text.split("## 8. How a job can stop")[1].split("\n## ")[0]
    documented = set(re.findall(r"^- `(\w+)`", section, flags=re.M))
    assert documented == {cls.__name__ for cls in K.TYPED_STOPS}


# -- each point an earlier tree got wrong, by name ---------------------------


def assert_recovered_in_place(strategy, kill, job=K.HEATDIS):
    report, _ = reference(strategy, 1, job)
    assert K.check(job, report, strategy, 1, [kill]) == K.Outcome("ok")


@pytest.mark.parametrize(
    "t", [4.412244, 4.412245, 4.41225, 4.412254, 4.412257])
@pytest.mark.parametrize("strategy", ["fenix_kr_veloc", "fenix_veloc"])
def test_kill_in_the_jobs_last_window(strategy, t):
    """Rank 2 dies after its peers' last halo exchange, before its own
    Fenix_Finalize.  Was: the survivors finalized without it, nobody
    revoked, ``DeadlockError ... rank4 (waiting on fenix.repair:4)``.
    Now finalize fails on the survivors, the spare recomputes the tail."""
    assert_recovered_in_place(strategy, (2, t))


@pytest.mark.parametrize("strategy, t", [
    ("fenix_kr_veloc", 4.412258476736082),
    ("fenix_veloc", 4.412258461089861)])
def test_kill_at_the_instant_the_peers_arrive_at_finalize(strategy, t):
    """Was: ``SimulationError("process 'job_driver' died with unhandled
    ReproError: job failed without recovery path: dead=[1]")``."""
    assert_recovered_in_place(strategy, (1, t))


@pytest.mark.parametrize("strategy", K.FENIX_STRATEGIES)
def test_no_spare_left_is_a_relaunch_not_a_short_result(strategy):
    """Was: ``attempts == 1``, results for ranks [0, 1, 2], no warning, no
    violation -- Fenix shrank the job under an application that cannot
    redistribute, and the harness counted the smaller communicator."""
    report, _ = reference(strategy, 0)
    killed = K.run(
        K.HEATDIS, strategy, 0, strict_monitor=True,
        plan=IterationFailure.between_checkpoints(2, K.HEATDIS.interval, 1))
    assert killed.attempts == 2 and sorted(killed.results) == [0, 1, 2, 3]
    for slot, outcome in killed.results.items():
        assert np.array_equal(outcome["grid"], report.results[slot]["grid"])


def test_a_checkpoint_in_flight_at_the_kill_is_no_version_violation():
    """Rank 0 dies while its peers are inside checkpoint v10's memcpy:
    their ``checkpoint`` records land 0.6 us after its ``rank_dead``, slot
    0 never wrote v10, the repaired job rolls back past it and writes v10
    again.  ``VersionMonitor`` opened its epoch at the death and called
    the second v10 a monotonicity violation (PR 16's unreproduced trip);
    the epoch opens at the repair decision."""
    assert_recovered_in_place("fenix_kr_veloc", (0, 4.400425987240462))


@pytest.mark.parametrize("job, t", [
    (K.HEATDIS, 4.401173245051802), (K.HEATDIS_5, 4.421177258462845),
    (K.MINIMD, 4.4075234738696105)], ids=["heatdis", "heatdis-5r", "minimd"])
def test_imr_torn_version_reproducer(job, t):
    """Rank 0 stored the first member of its first version (Heatdis:
    1372476450 v10) and died before the last (745304055).  Was:
    ``FenixError("IMR: no copy of member 745304055 v10 for rank 0")`` --
    the first such point of each matrix above."""
    assert_recovered_in_place("fenix_kr_imr", (0, t), job)


def test_benchmark_sweep_seeds_59_and_128_finish():
    """The last two ``SWEEP_PLAN_SEEDS`` exclusions of ``benchmarks/e2e``,
    built exactly as its adapter builds them: a member dies during
    iteration 119 of 120 (and, in 128, a spare later).  Were deadlocks."""
    from benchmarks.e2e import adapter
    from repro.parallel.spec import execute_cell

    cells = adapter.sweep_cells([59, 128], adapter.sweep_mtbf())
    for cell in cells:
        if cell.strategy == "fenix_kr_veloc":
            report = execute_cell(cell).report
            assert report.attempts == 1, cell.label
            assert sorted(report.results) == list(range(8)), cell.label
            assert not report.violations, cell.label


# -- how a job can stop: typed, and as itself --------------------------------


def test_spare_exhaustion_reaches_a_hand_built_job_as_itself():
    """Through ``run_job`` it is a relaunch (above); a hand-built system
    under the default ``abort`` policy has nobody to relaunch it."""
    world = World(Cluster(ClusterSpec(n_nodes=3)), 3)
    system = FenixSystem(world, n_spares=0)
    plan = IterationFailure([(1, 1)])

    def main(role, handle):
        for i in range(3):
            plan.check(handle.ctx.rank, i)
            yield from handle.allreduce(0)

    for r in range(3):
        world.spawn(r, system.run(world.context(r), main), failure_plan=plan)
    world.engine.run()
    assert world.dead == {0, 1, 2}
    assert [type(exc) for _, exc in world.errors] == [SpareExhaustionError] * 2
    with pytest.raises(ConfigError, match="unknown spare policy"):
        FenixSystem(world, n_spares=0, spare_policy="grow")
