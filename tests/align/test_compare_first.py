"""Differential + contract tests of the compare-first pass of ``align``.

``align`` answers "are the two streams pairwise identical?" before it
keys and canonicalises anything; :func:`tests.align.reference_align
.reference_align` is the parent commit's body, which always does.  For
every pair of streams, metas and ``structural_only`` the two must produce
the same :meth:`Alignment.to_dict` -- the identity test may only ever say
"identical" where the keyed alignment would have matched every record.

The differential half mutates a recorded protocol stream (plus one probe
record carrying every scalar shape the identity rule distinguishes); the
contract half pins each clause of the rule with the one input that a
weaker rule would get wrong (dropping the type check, the sign-of-zero
check or the length check each fails a test here).
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.engine import _identical, _same_value, align
from repro.sim.trace import TraceRecord
from tests.align.reference_align import reference_align

#: every shape the identity rule tells apart, in one record
PROBE = TraceRecord(
    time=99.0, source="probe.rank1", kind="probe", fields={
        "i": 1, "f": 1.0, "b": True, "z": 0.0, "t": (0, 1), "n": None,
        "s": "x", "nested": [(0, 1), 2.0], "seconds": 0.25,
    })

#: replacement values: equal-but-differently-typed, signed zeros, NaN,
#: both sequence types, and shapes the rule cannot judge (dict, set)
VALUES = st.sampled_from([
    0, 1, 2, 1.0, 2.0, True, False, 0.0, -0.0, math.nan, math.inf, None,
    "1", "x", (0, 1), [0, 1], (0, 1.0), [(0, 1), 2.0], [[0, 1], 2.0],
    (0.0,), (-0.0,), {"a": 1}, frozenset({1}),
])


def canon(alignment):
    return json.dumps(alignment.to_dict(), sort_keys=True, default=repr)


def assert_same_as_reference(a, b, **kwargs):
    got = align(a, b, **kwargs)
    want = reference_align(a, b, **kwargs)
    assert canon(got) == canon(want)
    return got


def with_fields(rec, **changes):
    return dataclasses.replace(rec, fields={**rec.fields, **changes})


@st.composite
def mutations(draw):
    """One edit of a stream: ``(op, position, position, payload)``."""
    op = draw(st.sampled_from([
        "none", "delete", "insert", "duplicate", "swap_anchors", "value",
        "volatile", "source", "truncate", "rename_field",
    ]))
    return (op, draw(st.integers(0, 10_000)), draw(st.integers(0, 10_000)),
            draw(VALUES))


def apply(records, mutation):
    op, i, j, value = mutation
    out = list(records)
    if not out:  # a truncate to one record, then a delete: nothing to edit
        return out
    i %= len(out)
    j %= len(out)
    if op == "delete":
        del out[i]
    elif op == "insert":
        out.insert(i, out[j])
    elif op == "duplicate":
        out.insert(i, out[i])
    elif op == "swap_anchors":
        anchors = [k for k, r in enumerate(out)
                   if r.kind in ("checkpoint", "role", "repair", "recover")]
        if not anchors:  # a truncate left none to swap
            return out
        a, b = anchors[i % len(anchors)], anchors[j % len(anchors)]
        out[a], out[b] = out[b], out[a]
    elif op == "value":
        rec = out[i]
        if rec.fields:
            names = sorted(rec.fields)
            out[i] = with_fields(rec, **{names[j % len(names)]: value})
    elif op == "volatile":
        out[i] = with_fields(out[i], seconds=value)
    elif op == "source":
        out[i] = dataclasses.replace(out[i], source=out[i].source + "x")
    elif op == "truncate":
        out = out[:max(1, i)]
    elif op == "rename_field":
        rec = out[i]
        if rec.fields:
            fields = dict(rec.fields)
            fields["renamed"] = fields.pop(sorted(fields)[j % len(fields)])
            out[i] = dataclasses.replace(rec, fields=fields)
    return out


#: ``sampled_out`` is a key of trace metas written while head sampling
#: existed; both sides now ignore it
METAS = st.sampled_from([
    None,
    {},
    {"sampled_out": 0, "dropped": 0},
    {"sampled_out": 7},
    {"sampled_out": 3, "dropped": 0},
    {"dropped": 5, "dropped_window": [0.0, 4.0]},
    {"dropped": 2, "dropped_window": [0.0, 1e9], "sampled_out": 7},
])


@pytest.fixture(scope="module")
def stream(base_records):
    return list(base_records) + [PROBE]


@settings(max_examples=250, deadline=None)
@given(edits=st.lists(mutations(), max_size=3), meta_a=METAS, meta_b=METAS,
       structural_only=st.booleans(), swap=st.booleans(),
       probe_at=st.integers(0, 10_000))
def test_align_equals_the_reference_on_mutated_streams(
        stream, edits, meta_a, meta_b, structural_only, swap, probe_at):
    a = list(stream)
    a.insert(probe_at % len(a), a.pop())  # the probe, anywhere
    b = list(a)
    for edit in edits:
        b = apply(b, edit)
    if swap:
        a, b = b, a
    assert_same_as_reference(a, b, meta_a=meta_a, meta_b=meta_b,
                             structural_only=structural_only)


@settings(max_examples=200, deadline=None)
@given(va=VALUES, vb=VALUES, structural_only=st.booleans())
def test_align_equals_the_reference_on_every_value_pair(
        va, vb, structural_only):
    """One record per side differing in one field: every cell of the
    ``1`` / ``1.0`` / ``True`` / ``(0, 1)`` / ``[0, 1]`` / ``0.0`` /
    ``-0.0`` / ``nan`` matrix, as plain field, as epoch and as rank."""
    for name in ("payload", "generation", "rank"):
        a = [with_fields(PROBE, **{name: va})]
        b = [with_fields(PROBE, **{name: vb})]
        assert_same_as_reference(a, b, structural_only=structural_only)


def test_recorded_identical_pair_takes_the_fast_path(
        base_records, replay_records, monkeypatch):
    """The audit's case: if the identity pass says yes, nothing is keyed."""
    import repro.align.engine as engine

    def no_keying(*args, **kwargs):
        raise AssertionError("identical streams must not be keyed")

    monkeypatch.setattr(engine, "key_records", no_keying)
    alignment = align(base_records, replay_records)
    assert alignment.matched == len(base_records)
    assert not alignment.divergent and alignment.notes == []


def test_fast_path_keeps_the_notes_of_the_keyed_path(base_records):
    for metas in (
        dict(meta_a={"dropped": 5, "dropped_window": [0.0, 4.0]}),
        dict(meta_a={"sampled_out": 1},
             meta_b={"dropped": 1, "dropped_window": [0.0, 0.1]}),
    ):
        got = assert_same_as_reference(base_records, list(base_records),
                                       **metas)
        assert got.notes and not got.divergent


# -- the contract of the identity rule -----------------------------------


@pytest.mark.parametrize("va, vb", [
    (1, 1.0), (1.0, 1), (1, True), (True, 1), (1.0, True), (0, False),
    (0, 0.0), ((0, 1), (0, 1.0)), ([1], [True]),
])
def test_equal_values_of_different_types_are_not_identical(va, vb):
    # the type check: they compare equal and serialise differently
    assert va == vb and not _same_value(va, vb)
    a, b = [with_fields(PROBE, payload=va)], [with_fields(PROBE, payload=vb)]
    got = assert_same_as_reference(a, b)
    assert got.counts()["value"] == 1


@pytest.mark.parametrize("va, vb", [
    (0.0, -0.0), (-0.0, 0.0), ((0.0,), (-0.0,)), ([1, -0.0], [1, 0.0]),
])
def test_signed_zeros_are_not_identical(va, vb):
    # the sign-of-zero check: 0.0 == -0.0, "0.0" != "-0.0"
    assert va == vb and not _same_value(va, vb)
    a, b = [with_fields(PROBE, payload=va)], [with_fields(PROBE, payload=vb)]
    got = assert_same_as_reference(a, b)
    assert got.counts()["value"] == 1


def test_a_prefix_is_not_identical(base_records):
    # the length check: every pair of the shorter stream passes
    prefix = base_records[:-3]
    assert all(map(_identical, base_records, prefix))
    got = assert_same_as_reference(base_records, prefix)
    assert got.counts()["missing"] == 3 and got.matched == len(prefix)
    got = assert_same_as_reference(prefix, base_records)
    assert got.counts()["extra"] == 3
    assert_same_as_reference(base_records, [])


def test_what_the_rule_accepts_and_what_it_cannot_tell():
    assert _same_value((0, 1), [0, 1])          # canonical JSON collapses
    assert _same_value([(0, 1), 2.0], [[0, 1], 2.0])
    assert _same_value(None, None) and _same_value("x", "x")
    assert _same_value(math.inf, math.inf)
    assert not _same_value((0, 1), (0, 1, 2))
    assert not _same_value(math.nan, math.nan)  # the keyed path decides
    assert not _same_value({"a": 1}, {"a": 1})  # cannot tell
    assert not _same_value(frozenset({1}), frozenset({1}))
    # ... and the keyed path still matches what the rule could not judge
    a = [with_fields(PROBE, payload={"a": 1})]
    b = [with_fields(PROBE, payload={"a": 1})]
    assert assert_same_as_reference(a, b).matched == 1


def test_identity_ignores_volatile_values_and_nothing_else():
    assert _identical(PROBE, with_fields(PROBE, seconds=9.75))
    assert _identical(PROBE, with_fields(PROBE, seconds="soon"))
    assert not _identical(PROBE, with_fields(PROBE, s="y"))
    assert not _identical(PROBE, with_fields(PROBE, extra=1))
    assert not _identical(
        PROBE, dataclasses.replace(PROBE, source="probe.rank2"))
    assert not _identical(PROBE, dataclasses.replace(PROBE, kind="probe2"))
    reordered = dataclasses.replace(
        PROBE, fields=dict(reversed(list(PROBE.fields.items()))))
    assert not _identical(PROBE, reordered)     # sufficient, not necessary
    assert assert_same_as_reference([PROBE], [reordered]).matched == 1
    # simulated time is not part of a record's identity (nor of its key)
    later = dataclasses.replace(PROBE, time=PROBE.time + 5.0)
    assert _identical(PROBE, later)
    assert assert_same_as_reference([PROBE], [later]).matched == 1
