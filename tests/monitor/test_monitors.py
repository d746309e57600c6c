"""Clean protocol executions pass every invariant monitor.

Covers the acceptance criterion that the paper's failure-injection
scenarios (reduced scale) run violation-free under ``strict_monitor``,
including the PROTOCOLS.md §4 spare-exhaustion shrink path and deaths
arriving during the repair-gate wait.
"""

from repro.monitor import MonitorSuite, standard_monitors
from repro.monitor.state import ProtocolStateTracker
from repro.sim import IterationFailure
from tests.monitor.conftest import (
    check,
    run_elastic_monitored,
    run_monitored,
)


class TestCleanRuns:
    def test_fenix_veloc_failure_run_is_clean(self, veloc_run):
        report, suite, records = veloc_run
        assert report.failures == 1
        assert suite.violations == []
        assert report.violations == []

    def test_fenix_kr_imr_failure_run_is_clean(self, imr_run):
        report, suite, records = imr_run
        assert suite.violations == []
        # the interesting protocol actually happened
        kinds = {r.kind for r in records}
        assert {"revoke", "repair", "role", "imr_buddy_recv"} <= kinds

    def test_fenix_kr_veloc_and_minimd_are_clean(self):
        for strategy, app in (("fenix_kr_veloc", "heatdis"),
                              ("fenix_kr_imr", "minimd")):
            report, suite, _ = run_monitored(strategy, app=app)
            assert suite.violations == [], (strategy, app)

    def test_replay_equals_online(self, veloc_run):
        """Replaying the recorded stream reports exactly what the live
        subscription did (monitors are deterministic state machines)."""
        _report, live, records = veloc_run
        replayed = MonitorSuite(standard_monitors()).replay(records)
        replayed.finish()
        assert ([ (v.monitor, v.rule) for v in replayed.violations ]
                == [ (v.monitor, v.rule) for v in live.violations ])


class TestShrinkPath:
    def test_spare_exhaustion_shrink_is_clean(self, shrink_run):
        suite, system, records = shrink_run
        assert system.resilient_comm.size == 2
        assert suite.violations == []
        kinds = {r.kind for r in records}
        assert {"revoke", "shrink", "repair", "role"} <= kinds

    def test_two_sequential_shrinks_are_clean(self):
        """Two failures, two generations -- including a death arriving
        while the protocol is between repairs."""
        suite, system, _ = run_elastic_monitored(
            4, IterationFailure([(1, 8), (2, 20)])
        )
        assert system.resilient_comm.size == 2
        assert suite.violations == []


class TestSuiteMechanics:
    def test_attach_feeds_preexisting_records(self):
        from repro.sim.trace import Trace
        tr = Trace()
        tr.emit(0.0, "fenix", "role", rank=0, role="RECOVERED", generation=0)
        suite = MonitorSuite()
        suite.attach(tr)  # the illegal record predates the attach
        suite.finish()
        assert any(v.rule == "illegal-role-edge" for v in suite.violations)

    def test_finish_detaches_and_is_idempotent(self):
        from repro.sim.trace import Trace
        tr = Trace()
        suite = MonitorSuite()
        suite.attach(tr)
        suite.finish()
        suite.finish()
        tr.emit(0.0, "fenix", "role", rank=0, role="RECOVERED", generation=0)
        assert suite.violations == []  # no longer listening

    def test_dropped_window_reported(self):
        from repro.sim.trace import Trace
        tr = Trace(max_records=2)
        suite = MonitorSuite()
        suite.attach(tr)
        for i in range(5):
            tr.emit(float(i), "s", "k")
        suite.finish()
        assert suite.dropped == 3
        assert suite.dropped_window == (0.0, 2.0)
        assert "dropped 3" in suite.report()


class TestKindDispatch:
    """The suite hands a monitor only the kinds it declares."""

    def test_clean_streams_read_the_same_as_feeding_everything(
            self, veloc_run, imr_run, shrink_run):
        kr_run = run_monitored("fenix_kr_veloc")  # 2/3 kr_region_* records
        for run in (veloc_run, imr_run, shrink_run, kr_run):
            assert check(run[2]) == []  # also compares with the oracle

    def test_declared_kinds_cover_what_each_feed_acts_on(self, veloc_run,
                                                         imr_run):
        """A record of an undeclared kind must leave a monitor's state
        alone -- otherwise its KINDS hides input from it.  The shared
        tracker is fed every record first, as the suite feeds it, and is
        not the monitor's own state."""
        import copy
        for _, _, records in (veloc_run, imr_run):
            state = ProtocolStateTracker()
            monitors = standard_monitors()
            for mon in monitors:
                assert mon.KINDS, type(mon).__name__
                mon.state = state
            for rec in records:
                state.feed(rec)
                for mon in monitors:
                    if rec.kind in mon.KINDS:
                        mon.feed(rec)
                        continue
                    snapshot = {k: copy.copy(v)
                                for k, v in vars(mon).items()
                                if k != "state"}
                    mon.feed(rec)
                    assert {k: v for k, v in vars(mon).items()
                            if k != "state"} == snapshot, (
                        type(mon).__name__, rec.kind)

    def test_declared_kinds_are_the_kinds_each_feed_compares_against(self):
        """KINDS restates ``feed``'s ``kind == ...`` chain; read the chain
        so a kind no recorded stream happens to carry (``abort``,
        ``agree``, ``finalize_arrive``, ``spare_activated``) cannot be
        handled by a feed and missing from the declaration."""
        import ast
        import inspect
        import textwrap

        for mon in standard_monitors():
            feed = ast.parse(textwrap.dedent(inspect.getsource(mon.feed)))
            compared = set()
            for node in ast.walk(feed):
                if (isinstance(node, ast.Compare)
                        and isinstance(node.left, ast.Name)
                        and node.left.id == "kind"):
                    for const in ast.walk(node.comparators[0]):
                        if isinstance(const, ast.Constant):
                            compared.add(const.value)
            assert compared == mon.KINDS, type(mon).__name__

    def test_the_suite_owns_its_monitor_list(self):
        """The dispatch table is built once: the list it was built from
        cannot be grown behind its back."""
        mine = standard_monitors()
        suite = MonitorSuite(mine)
        mine.append(standard_monitors()[0])
        assert isinstance(suite.monitors, tuple) and len(suite.monitors) == 6

    def test_a_monitor_that_declares_nothing_sees_every_record(self):
        from repro.monitor import ProtocolMonitor
        from repro.sim.trace import Trace

        class Recorder(ProtocolMonitor):
            def __init__(self):
                super().__init__()
                self.kinds = []

            def feed(self, rec):
                self.kinds.append(rec.kind)

        recorder = Recorder()
        suite = MonitorSuite(standard_monitors() + [recorder])
        tr = Trace()
        suite.attach(tr)
        # declared by several monitors, by one, and by none
        for kind in ("rank_dead", "flush_done", "kr_region_begin", "made_up"):
            tr.emit(0.0, "world", kind, rank=0, key=None)
        assert recorder.kinds == ["rank_dead", "flush_done",
                                  "kr_region_begin", "made_up"]


class TestRelaunch:
    """A relaunched job is a new protocol instance (PROTOCOLS.md §6)."""

    @staticmethod
    def two_attempts():
        from repro.sim.trace import TraceRecord as R

        def attempt(n, t):
            return [
                R(t, f"job.attempt{n}.comm", "comm_create",
                  {"members": [0, 1]}),
                R(t, "fenix.resilient.g0", "comm_create", {"members": [0, 1]}),
                R(t, "fenix", "role",
                  {"rank": 0, "role": "INITIAL", "generation": 0}),
                R(t, "fenix", "role",
                  {"rank": 1, "role": "INITIAL", "generation": 0}),
            ]

        return attempt(1, 0.0) + [
            R(1.0, "veloc.rank0", "checkpoint", {"version": 10}),
            R(1.5, "veloc.server0", "flush_done",
              {"key": ["veloc", "heat", 10, 0]}),
            R(2.0, "job.attempt1", "rank_dead", {"rank": 1}),
            R(2.0, "fenix.resilient.g0", "revoke", {"size": 2}),
            R(2.1, "fenix", "abort", {"generation": 1}),
        ] + attempt(2, 3.0) + [
            R(4.0, "veloc.rank0", "recover", {"version": 10, "tier": "pfs"}),
            R(5.0, "job.attempt2", "rank_dead", {"rank": 0}),
            R(5.0, "fenix.resilient.g0", "revoke", {"size": 2}),
            R(5.1, "fenix", "abort", {"generation": 1}),
        ]

    def test_world_state_is_per_attempt_and_pfs_history_is_not(self):
        """Attempt 2 gives INITIAL to ranks attempt 1 left INITIAL or
        dead, revokes a same-named communicator and starts its repair
        generations over -- none of it a violation; and it restores a
        version attempt 1 wrote, which is no ghost restore."""
        suite = MonitorSuite()
        suite.replay(self.two_attempts())
        suite.finish()
        assert suite.violations == []

    def test_the_boundary_is_the_attempt_worlds_comm_create(self):
        """The same stream without it is one world, and wrong four times
        over (what every relaunched Fenix job used to be reported as)."""
        suite = MonitorSuite()
        suite.replay([r for r in self.two_attempts()
                      if r.source != "job.attempt2.comm"])
        suite.finish()
        assert {v.rule for v in suite.violations} == {
            "illegal-role-edge", "role-on-dead-rank", "generation-sequence"}
