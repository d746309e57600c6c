"""The protocol vocabulary, held to its word.

``repro.vocabulary`` is the one declaration of which layer a record
belongs to, which recovery stage it marks and whose record it is.  These
tests tie it to (a) what the stack really emits and what
docs/PROTOCOLS.md §7 tells readers, (b) the observer packages, which may
not grow a second copy, (d) the per-iteration kinds -- and check that the
views built on the resolver (``monitor state``, the ``live`` lanes, the
Chrome export) tell one story about a substituted spare.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

from repro import vocabulary as V
from repro.align.keying import protocol_critical
from repro.cli import build_job
from repro.live.series import TimeSeriesAggregator
from repro.monitor import MonitorSuite, standard_monitors
from repro.monitor.__main__ import SMOKE_SCENARIOS
from repro.monitor.__main__ import main as monitor_main
from repro.monitor.state import ProtocolStateTracker
from repro.monitor.trace_io import read_trace
from repro.sim.failures import IterationFailure
from repro.sim.trace import TraceRecord
from repro.telemetry import Telemetry
from repro.telemetry.export import to_chrome_trace, track_for_source

ROOT = pathlib.Path(__file__).resolve().parents[1]
OBSERVER_PACKAGES = ("monitor", "live", "align", "profile", "telemetry",
                     "report")


# -- the table readers see ---------------------------------------------------


def protocols_table():
    """docs/PROTOCOLS.md §7 as ``{kind: {column: cell}}`` (cells stripped
    of backticks; ``–`` read as empty)."""
    text = (ROOT / "docs" / "PROTOCOLS.md").read_text(encoding="utf-8")
    lines = text[text.index("## 7."):].splitlines()
    rows = [[c.strip().replace("`", "") for c in ln.strip("|").split("|")]
            for ln in lines if ln.startswith("|")]
    header, body = rows[0], rows[2:]
    assert header == ["kind", "source", "layer", "recovery stage",
                      "per-iteration", "span twin"]
    return {row[0]: {col: ("" if cell == "–" else cell)
                     for col, cell in zip(header, row)} for row in body}


def shape_of(source):
    """The table's ``source`` spelling of one concrete source."""
    track, n = V.parse_source(source)
    if n is not None:
        return f"{track}.rankN" if track else "rankN"
    if source == "fenix":
        return source
    if re.fullmatch(r"veloc\.server\d+", source):
        return "veloc.serverN"
    return "<name>"  # a world or a communicator: named by its creator


def test_protocols_table_is_the_module():
    table = protocols_table()
    assert list(table) == list(V.KINDS)
    for kind, row in table.items():
        layer, stage, span = V.KINDS[kind]
        assert (row["layer"], row["recovery stage"], row["span twin"]) \
            == (layer, stage or "", span or ""), kind
        assert (row["per-iteration"] == "yes") \
            == (kind in V.PER_ITERATION_KINDS), kind
        # a kind Fenix re-emits at its own level is Fenix's there
        shapes = row["source"].split(", ")
        if "fenix" in shapes and "<comm>" in shapes:
            assert V.layer_of(TraceRecord(0.0, "fenix", kind)) == "fenix"
            assert V.layer_of(TraceRecord(0.0, "w.comm", kind)) == "ulfm"


# -- (a) completeness: what the stack emits is declared -----------------------


def undeclared(records):
    """Everything about a record stream the vocabulary does not cover, as
    readable problems (empty: the stream is fully declared).  Also run by
    CI's ``monitor-smoke`` job over the traces it uploads."""
    table = protocols_table()
    problems = set()
    members, dead = (), set()
    for rec in records:
        if rec.kind not in V.KINDS:
            problems.add(f"kind {rec.kind!r} (from {rec.source}) is not "
                         "declared in repro.vocabulary.KINDS")
            continue
        if V.layer_of(rec) not in V.LAYERS[:-1]:
            problems.add(f"{rec.kind} falls through to the 'app' layer")
        shapes = {"<name>" if s in ("<world>", "<comm>") else s
                  for s in table[rec.kind]["source"].split(", ")}
        if shape_of(rec.source) not in shapes:
            problems.add(f"{rec.kind} from {rec.source}: PROTOCOLS.md §7 "
                         f"declares the source as {sorted(shapes)}")
        if rec.kind == "comm_create":
            if rec.source.startswith(V.RESILIENT_COMM):
                members = rec.fields["members"]
            elif V.ATTEMPT_WORLD in rec.source:
                dead -= set(rec.fields["members"])
        elif rec.kind == "rank_dead":
            dead.add(rec.fields["rank"])
        # whose record: a layer track must resolve to a process that is
        # running -- a slot-named track missing from SLOT_TRACKS lands
        # the spare's work on the rank it replaced, which is dead
        owner = V.world_rank(rec.source, rec.fields, members)
        if owner in dead:
            problems.add(f"{rec.kind} from {rec.source} resolves to dead "
                         f"rank {owner}: is the track a slot track?")
    return sorted(problems)


@pytest.fixture(scope="module")
def smoke_runs():
    """``monitor smoke``'s five scenarios, telemetered: ``{label:
    (records, telemetry)}``."""
    runs = {}
    for app, strategy, kill_rank in SMOKE_SCENARIOS:
        suite, tel = MonitorSuite(), Telemetry()
        build_job(app, strategy, 4, 30, 10, kill_rank=kill_rank)(
            monitor=suite, telemetry=tel)
        runs[f"{app}-{strategy}"] = (list(suite._trace), tel)
    return runs


def test_every_record_of_the_smoke_scenarios_is_declared(smoke_runs):
    for label, (records, _tel) in smoke_runs.items():
        assert undeclared(records) == [], label


def test_every_record_of_an_elastic_shrink_is_declared():
    from tests.monitor.conftest import run_elastic_monitored

    _suite, _system, records = run_elastic_monitored(
        3, IterationFailure([(1, 17)]))
    # the §4 path: no spare, the communicator comes back smaller
    assert [r.fields["members"] for r in records
            if r.kind == "comm_create"
            and r.source.startswith(V.RESILIENT_COMM)] == [[0, 1, 2], [0, 2]]
    assert undeclared(records) == []


def test_an_undeclared_backend_is_caught():
    """What the completeness check is for: a backend that emits kinds it
    never declared, on a slot track it never declared."""
    records = [
        TraceRecord(0.0, "fenix.resilient.g0", "comm_create",
                    {"members": [0, 1]}),
        TraceRecord(1.0, "w", "rank_dead", {"rank": 1}),
        TraceRecord(2.0, "fenix.resilient.g1", "comm_create",
                    {"members": [0, 2]}),
        TraceRecord(3.0, "restore.rank1", "restore_fetch", {}),
        TraceRecord(3.0, "restore.rank1", "recover", {"version": 1}),
    ]
    problems = undeclared(records)
    assert any("restore_fetch" in p and "not declared" in p for p in problems)
    assert any("declares the source" in p for p in problems)
    assert any("dead rank 1" in p for p in problems)


def test_span_twins_end_where_their_record_is_emitted(smoke_runs):
    """``SPAN_OF`` is not a naming convention: for every record of a
    twinned kind there is exactly one span of the twin's name ending at
    that instant *on the same process* -- the record resolved through the
    communicator's members, the span through its ``wrank``."""
    seen = set()
    for label, (records, tel) in smoke_runs.items():
        members = ()
        emitted = Counter()
        for rec in records:
            if (rec.kind == "comm_create"
                    and rec.source.startswith(V.RESILIENT_COMM)):
                members = rec.fields["members"]
            if rec.kind in V.SPAN_OF:
                emitted[V.SPAN_OF[rec.kind], rec.time, V.world_rank(
                    rec.source, rec.fields, members)] += 1
        closed = Counter(
            (s.name, s.end, V.world_rank(s.source, s.fields))
            for s in tel.tracer.spans if s.name in V.SPAN_OF.values())
        assert emitted == closed, label
        seen |= {name for name, _, _ in closed}
    assert seen == set(V.SPAN_OF.values())


def test_layer_track_spans_say_whose_they_are(smoke_runs):
    for label, (_records, tel) in smoke_runs.items():
        for span in tel.tracer.all_records():
            track, n = V.parse_source(span.source)
            if track and n is not None:
                assert span.name.startswith(track + "."), (label, span)
                if track in V.SLOT_TRACKS:
                    assert "wrank" in span.fields, (label, span)


# -- (b) no second copy -------------------------------------------------------


def _own_kinds_literals(tree):
    """Nodes inside a monitor class's own ``KINDS = ...`` declaration."""
    own = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "KINDS"
                        for t in stmt.targets):
                    own |= {id(n) for n in ast.walk(stmt.value)}
    return own


def test_observers_keep_no_copy_of_the_vocabulary():
    markers = {"rank_killed", "imr_restore", "kr_region_commit"}
    offenders = []
    for package in OBSERVER_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = _own_kinds_literals(tree)
            for node in ast.walk(tree):
                line = getattr(node, "lineno", 0)
                where = f"{path.relative_to(ROOT)}:{line}"
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "re" and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and "rank" in str(node.args[0].value)):
                    offenders.append(f"{where}: a rank-source regex; use "
                                     "repro.vocabulary.parse_source")
                if isinstance(node, ast.Dict):
                    elements = node.keys
                elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                    elements = node.elts
                else:
                    continue
                names = {e.value for e in elements
                         if isinstance(e, ast.Constant)}
                if names & markers and id(node) not in own:
                    offenders.append(f"{where}: a kind set of its own "
                                     f"{sorted(names & markers)}")
    assert offenders == []


def test_the_vocabulary_is_a_leaf():
    tree = ast.parse((ROOT / "src/repro/vocabulary.py").read_text("utf-8"))
    imported = {(n.module if isinstance(n, ast.ImportFrom) else a.name)
                for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    assert {m.split(".")[0] for m in imported} <= {
        "__future__", "functools", "typing"}


# -- (d) the declared sets agree with each other ------------------------------


def test_protocol_critical_is_the_per_iteration_complement_over_every_kind():
    for kind in V.KINDS:
        assert protocol_critical(kind) == (kind not in V.PER_ITERATION_KINDS)
    assert V.PER_ITERATION_KINDS <= set(V.KINDS)


def test_every_named_set_draws_from_the_declared_kinds():
    declared = set(V.KINDS)
    stages = V.RECOVERY_STAGES
    assert all(stages.values())  # no stage name without a kind
    assert {row[1] for row in V.KINDS.values()} - {None} == set(stages)
    assert {row[0] for row in V.KINDS.values()} <= set(V.LAYERS)
    assert set(V.KILL_KINDS) < set(stages["failure"])
    assert set(V.REPAIR_DONE_KINDS) < set(stages["repair"])
    assert set(V.RECOVERY_DONE_KINDS) < set(stages["restore"])
    assert {k for _layer, kinds in V.RECOVERY_SPINE for k in kinds} \
        <= {k for kinds in stages.values() for k in kinds}
    assert [layer for layer, _ in V.RECOVERY_SPINE] == [
        layer for layer in V.LAYERS if layer in dict(V.RECOVERY_SPINE)]
    for monitor in standard_monitors():
        assert monitor.KINDS <= declared, type(monitor).__name__
        assert all(protocol_critical(k) for k in monitor.KINDS)


def test_anchor_kinds_are_what_align_has_always_anchored_on():
    assert V.ANCHOR_KINDS == {
        "rank_killed", "rank_crashed", "rank_dead", "detect", "revoke",
        "shrink", "agree", "repair", "abort", "gate_arrive", "role",
        "spare_activated", "checkpoint", "recover", "imr_restore"}
    assert all(protocol_critical(kind) for kind in V.ANCHOR_KINDS)


# -- (ii) the source format ---------------------------------------------------


@pytest.mark.parametrize("source, parsed", [
    ("rank3", ("", 3)),
    ("veloc.rank3", ("veloc", 3)),
    ("imr.rank12", ("imr", 12)),
    ("a.b.rank0", ("a.b", 0)),
    ("fenix", ("fenix", None)),
    ("veloc.server2", ("veloc.server2", None)),
    ("heatdis.attempt1.comm", ("heatdis.attempt1.comm", None)),
    ("crank3", ("crank3", None)),
    ("rank", ("rank", None)),
    ("veloc.rank", ("veloc.rank", None)),
    ("veloc.rank3x", ("veloc.rank3x", None)),
    ("veloc.rank²", ("veloc.rank²", None)),
    ("", ("", None)),
])
def test_parse_source(source, parsed):
    assert V.parse_source(source) == parsed


# -- (iii) whose record is this -----------------------------------------------


def test_world_rank_resolution_order():
    members = [0, 4, 2, 3]  # spare 4 holds slot 1
    assert V.world_rank("rank1", {}, members) == 1
    assert V.world_rank("rank1", {"wrank": 9}, members) == 1
    assert V.world_rank("veloc.rank1", {"wrank": 7}, members) == 7
    assert V.world_rank("veloc.rank1", {}, members) == 4
    assert V.world_rank("imr.rank1", {}, members) == 4
    assert V.world_rank("kr.rank1", {}, members) == 1  # names the process
    assert V.world_rank("veloc.rank1", {}) == 1        # never substituted
    assert V.world_rank("veloc.rank9", {}, members) == 9
    assert V.world_rank("fenix", {"wrank": 3}, members) is None
    assert V.world_rank("veloc.server0", {}, members) is None


def test_track_folding_follows_the_resolver():
    assert track_for_source("veloc.rank1") == "rank1"
    assert track_for_source("veloc.rank1", {"wrank": 4}) == "rank4"
    assert track_for_source("veloc.rank1", {}, [0, 4, 2, 3]) == "rank4"
    assert track_for_source("kr.rank1", {}, [0, 4, 2, 3]) == "rank1"
    assert track_for_source("job", {"wrank": 4}) == "job"


def record_and_replay(tmp_path, strategy):
    """The reproducer, end to end: ``monitor check --save-trace``, then
    the state tracker and the live aggregator over the same records."""
    path = str(tmp_path / f"{strategy}.trace.jsonl")
    assert monitor_main(["check", "--strategy", strategy, "--ranks", "4",
                         "--kill-rank", "1", "--save-trace", path]) == 0
    records, _meta = read_trace(path)
    tracker = ProtocolStateTracker().replay(records)
    lanes = TimeSeriesAggregator().replay(records).lanes
    return records, tracker.ranks, lanes


def assert_views_agree(records, states, lanes):
    assert set(states) == set(lanes)
    assert {r for r, st in states.items() if not st.alive} \
        == {r for r, lane in lanes.items() if lane.state == "dead"}
    for r, st in states.items():
        assert (st.last_checkpoint is not None) \
            == (lanes[r].checkpoints > 0), r
    assert sum(lane.checkpoints for lane in lanes.values()) \
        == sum(1 for rec in records if rec.kind == "checkpoint")


@pytest.mark.parametrize("strategy", ["fenix_kr_veloc", "fenix_kr_imr"])
def test_a_substituted_spare_is_one_process_in_every_view(tmp_path, strategy):
    records, states, lanes = record_and_replay(tmp_path, strategy)
    assert_views_agree(records, states, lanes)
    assert {r for r, st in states.items() if st.role == "RECOVERED"} \
        == {r for r, lane in lanes.items() if lane.state == "recovered"} \
        == {4}
    # rank 1 died and never ran again; what slot 1 did next was rank 4
    assert (lanes[1].state, lanes[1].kills) == ("dead", 1)
    assert lanes[1].last_kind == "rank_dead"
    if strategy == "fenix_kr_veloc":
        assert [lanes[r].checkpoints for r in sorted(lanes)] == [2, 1, 2, 2, 1]


def test_after_a_relaunch_every_rank_is_alive_again_in_every_view(tmp_path):
    records, states, lanes = record_and_replay(tmp_path, "kr_veloc")
    assert_views_agree(records, states, lanes)
    assert sorted(lanes) == [0, 1, 2, 3]
    assert all(st.alive and st.exited for st in states.values())
    assert [lane.checkpoints for lane in lanes.values()] == [2, 2, 2, 2]
    assert lanes[1].kills == 1


@pytest.mark.parametrize("strategy", ["fenix_veloc", "fenix_kr_veloc",
                                      "fenix_kr_imr"])
def test_nothing_runs_on_a_rank_track_after_its_kill(strategy):
    tel = Telemetry()
    build_job("heatdis", strategy, 4, 30, 10, kill_rank=1)(telemetry=tel)
    doc = to_chrome_trace(tel, trace=tel.trace)
    track = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
             if e["name"] == "thread_name"}
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    (killed,) = [e for e in events if e["name"] == "rank_killed"
                 and e["ph"] == "i" and e["cat"] != "trace"]
    assert track[killed["tid"]] == "rank1"
    late = [e["name"] for e in events
            if e["tid"] == killed["tid"] and e["ts"] > killed["ts"]
            and (e["ph"] == "X" or e["cat"] == "trace")]
    assert late == []
    # and the spare's recovery is on the spare's row
    spare = [e["name"] for e in events if track[e["tid"]] == "rank4"]
    assert set(V.RECOVER_SPANS) & set(spare)
    assert set(V.RECOVERY_DONE_KINDS) & set(spare)
