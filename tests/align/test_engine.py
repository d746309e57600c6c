"""The alignment engine on real traces and constructed corner cases."""

import copy

from repro.align.engine import (
    align,
    audit_traces,
    first_divergence_report,
    recovery_breakdown,
)
from repro.sim.trace import TraceRecord


def rec(time=0.0, source="veloc.rank0", kind="checkpoint", **fields):
    return TraceRecord(time=time, source=source, kind=kind, fields=fields)


# -- identical runs ------------------------------------------------------


def test_identical_runs_align_cleanly(base_records, replay_records):
    alignment = align(base_records, replay_records)
    assert not alignment.divergent
    assert alignment.matched == len(base_records) == len(replay_records)
    assert alignment.counts()["missing"] == 0
    assert alignment.counts()["extra"] == 0


def test_audit_traces_identical(base_trace, replay_trace):
    assert audit_traces(base_trace, replay_trace) == []


# -- a perturbed victim rank ---------------------------------------------


def test_perturbed_kill_rank_first_divergence_is_process_layer(
        base_records, perturbed_records):
    alignment = align(base_records, perturbed_records)
    assert alignment.divergent
    first = alignment.first
    assert first.layer == "process"
    assert first.key[1] in ("rank_killed", "rank_crashed")
    assert first.category in ("missing", "extra")
    assert first.briefs  # the diverging record renders its own brief


def test_first_divergence_report_carries_context_and_downstream(
        base_records, perturbed_records):
    alignment = align(base_records, perturbed_records)
    report = first_divergence_report(
        alignment, base_records, perturbed_records)
    first = report["first"]
    assert first["layer"] == "process"
    assert first["context_a"] and first["context_b"]
    down = report["downstream"]
    assert {"a", "b", "delta"} <= set(down["wall_time"])
    assert down["recovery_latency"]["a"] is not None
    # both runs recover, so the per-layer path has both sides
    assert down["recovery_path"]
    for stage in down["recovery_path"].values():
        assert {"a", "b", "delta"} <= set(stage)


# -- value drift ---------------------------------------------------------


def test_value_drift_names_the_field(base_records, replay_records):
    mutated = [copy.deepcopy(r) for r in replay_records]
    victim = next(r for r in mutated if r.kind == "checkpoint")
    victim.fields["nbytes"] = -1
    alignment = align(base_records, mutated)
    assert [d.category for d in alignment.divergences] == ["value"]
    assert alignment.divergences[0].fields == ["nbytes"]
    assert alignment.divergences[0].layer == "veloc"


def test_volatile_field_drift_is_not_a_divergence(
        base_records, replay_records):
    mutated = [copy.deepcopy(r) for r in replay_records]
    changed = 0
    for r in mutated:
        if "seconds" in r.fields:
            r.fields["seconds"] += 1.0
            changed += 1
    assert changed > 0
    assert not align(base_records, mutated).divergent


def test_structural_only_ignores_value_drift(base_records, replay_records):
    mutated = [copy.deepcopy(r) for r in replay_records]
    next(r for r in mutated
         if r.kind == "checkpoint").fields["nbytes"] = -1
    assert not align(base_records, mutated, structural_only=True).divergent


# -- reorder (LIS over the protocol anchors) -----------------------------


def test_swapped_anchors_report_a_single_reorder():
    a = [rec(time=0.0, source="fenix", kind="role", rank=0),
         rec(time=0.0, source="fenix", kind="role", rank=1),
         rec(time=1.0, source="veloc.rank0", kind="checkpoint", version=1)]
    b = [a[1], a[0], a[2]]
    alignment = align(a, b)
    assert [d.category for d in alignment.divergences] == ["reorder"]
    # LIS blames the genuinely displaced anchor, not both
    assert alignment.matched == len(a) - 1


# -- ring-buffer excusal -------------------------------------------------


def test_evicted_prefix_is_excused_not_divergent(base_records):
    k = 40
    suffix = base_records[k:]
    meta_b = {
        "dropped": k,
        "dropped_window": [base_records[0].time, base_records[k - 1].time],
    }
    alignment = align(base_records, suffix, meta_b=meta_b)
    assert not alignment.divergent
    assert alignment.excused > 0
    assert any("ring-buffer" in note for note in alignment.notes)


# -- recovery breakdown --------------------------------------------------


def test_recovery_breakdown_walks_the_protocol_spine(base_records):
    path = recovery_breakdown(base_records)
    assert path["total"] >= 0.0
    assert set(path) <= {"ulfm", "fenix", "veloc", "kr", "total"}
    charged = sum(v for k, v in path.items() if k != "total")
    assert abs(charged - path["total"]) < 1e-9


def test_recovery_breakdown_empty_without_a_kill():
    records = [rec(time=float(i), version=i) for i in range(5)]
    assert recovery_breakdown(records) == {}
