"""``monitor state`` across a relaunch: per-process state is scoped to
one MPI world, like every monitor's (``Monitor.begin_world``)."""

from repro.cli import build_job
from repro.monitor import MonitorSuite
from repro.monitor.state import ProtocolStateTracker
from repro.sim.failures import IterationFailure
from repro.sim.trace import TraceRecord


def relaunched(spares, kills):
    """The tracker after a 4-rank job whose last kill finds no spare:
    Fenix aborts and the harness relaunches (attempt 2)."""
    suite = MonitorSuite()
    report = build_job("heatdis", "fenix_kr_veloc", 4, 30, 10, spares=spares)(
        plan=IterationFailure(kills), monitor=suite, strict_monitor=False)
    assert report.attempts == 2
    return ProtocolStateTracker().replay(suite._trace)


def test_a_relaunched_spare_inherits_nothing_from_the_slot_it_once_held():
    """Attempt 1: rank 1 dies, spare 4 takes slot 1, checkpoints v20 and
    had restored v10; rank 2 dies with no spare left.  Attempt 2's rank 4
    is a fresh, idle spare -- and nobody has repaired anything yet."""
    tracker = relaunched(spares=1, kills=[(1, 17), (2, 25)])
    spare = tracker.ranks[4]
    assert (spare.role, spare.last_checkpoint, spare.last_recover) \
        == ("SPARE", None, None)
    assert tracker.generation == 0
    assert {st.generation for st in tracker.ranks.values()} == {0}
    assert all(st.alive for st in tracker.ranks.values())


def test_a_world_that_never_repaired_is_at_generation_zero():
    """No spare at all: the one kill aborts attempt 1 (generation 1 was
    agreed on the way out); attempt 2 runs failure-free from v10."""
    tracker = relaunched(spares=0, kills=[(1, 17)])
    assert tracker.generation == 0
    assert {st.last_recover for st in tracker.ranks.values()} == {"v10 (pfs)"}
    assert {st.last_checkpoint for st in tracker.ranks.values()} == {20}


def test_a_record_missing_a_field_is_skipped_whole():
    """Records from outside may lack a field the fold reads: the tracker
    skips them rather than raise, and applies none of a half-read one."""
    tracker = ProtocolStateTracker()
    for kind, fields in [("rank_dead", {}), ("rank_exit", {}),
                         ("comm_create", {}), ("spare_activated", {}),
                         ("role", {"rank": 1, "role": "SPARE"}),
                         ("repair", {})]:
        source = "fenix" if kind in ("role", "repair") else "job.attempt1"
        tracker.feed(TraceRecord(1.0, source, kind, fields))
    tracker.feed(TraceRecord(1.0, "veloc.rank2", "checkpoint",
                             {"version": "v?"}))
    assert tracker.world == () and tracker.generation == 0
    assert all(st.alive and st.role is None and st.last_checkpoint is None
               for st in tracker.ranks.values())
