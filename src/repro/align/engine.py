"""The alignment engine: merge two keyed streams, classify, root-cause.

Given two record streams (plus their drop-accounting metas), the engine
first asks whether they are equal and only then spells out how they
differ.  **Compare first:** the streams are walked pairwise with a *sufficient* identity test -- same ``kind``,
same ``source``, same field names in the same order, and every
non-volatile value equal under a type-strict rule (``int``/``str``/
``bool``/``None`` by ``type is`` and ``==``; ``float`` also by sign of
zero and never when NaN; ``tuple``/``list`` element-wise and
interchangeably, as the canonical JSON collapses them; any other type:
"cannot tell").  Records that pass get the same logical key and the same
canonical value, so if every pair passes and the lengths match, all of
them are matched, in order, and the answer is ``Alignment(matched=n)``
with the notes the keyed path would have added -- which is what the
determinism audit of a deterministic simulator gets, at a tenth of the
cost of keying both traces.  Simulated ``time`` is not part of a record's
identity here any more than it is part of its key.

Otherwise the engine keys both streams (:mod:`repro.align.keying`, one
``json.dumps`` per record per side), and classifies every record:

- **matched** -- same key, same canonical value, same relative order
  among the protocol-critical anchors;
- **reordered** -- same key and value, but the record's position among
  the anchors inverted between runs (found via a longest-increasing-
  subsequence pass, so only genuinely displaced anchors are blamed);
- **value-drifted** -- same key, different non-volatile fields;
- **missing** / **extra** -- the key exists in only one stream;
- **excused** -- a missing/extra record that the counterpart's ring
  buffer accounted for (its time falls inside the ``dropped_window``),
  which is exactly the "say what you did not see" accounting the trace
  layer keeps.

The first-divergence root-causer (:func:`first_divergence_report`)
takes the earliest surviving divergence, attributes it to a resiliency
layer, renders the causal record briefs around it (reusing
:meth:`~repro.sim.trace.TraceRecord.brief`, the monitor's rendering),
and reports the downstream deltas: wall time, recovery latency and the
per-layer recovery path of each run's first failure, both
:func:`repro.monitor.explain.recovery_path`'s (kill to the critical
rank's re-entry, timed along :data:`repro.vocabulary.RECOVERY_SPINE`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.align.keying import (
    VOLATILE_FIELDS,
    KeyedRecord,
    key_records,
    protocol_critical,
)
from repro.monitor.explain import recovery_path
from repro.sim.trace import TraceRecord
from repro.vocabulary import ANCHOR_KINDS, LAYERS

#: divergence categories, in blame order (a missing anchor is reported
#: ahead of a value drift at the same simulated time)
CATEGORIES = ("missing", "extra", "value", "reorder")

_EPS = 1e-12


@dataclass
class Divergence:
    """One classified disagreement between two runs."""

    category: str
    layer: str
    key: Tuple[Optional[int], str, Optional[float], int]
    #: simulated time the divergence surfaces (min over both sides)
    time: float
    #: one-line human statement of the disagreement
    summary: str
    #: the record's own brief(s): run A first, then run B, when present
    briefs: List[str] = field(default_factory=list)
    #: which fields drifted (value category only)
    fields: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        wrank, kind, epoch, occurrence = self.key
        return {
            "category": self.category,
            "layer": self.layer,
            "key": {
                "wrank": wrank,
                "kind": kind,
                "epoch": epoch,
                "occurrence": occurrence,
            },
            "time": self.time,
            "summary": self.summary,
            "briefs": list(self.briefs),
            "fields": list(self.fields),
        }


@dataclass
class Alignment:
    """The full classification of one trace pair."""

    n_a: int
    n_b: int
    matched: int = 0
    excused: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def divergent(self) -> bool:
        return bool(self.divergences)

    @property
    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def counts(self) -> Dict[str, int]:
        out = {c: 0 for c in CATEGORIES}
        for d in self.divergences:
            out[d.category] += 1
        out["matched"] = self.matched
        out["excused"] = self.excused
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records_a": self.n_a,
            "records_b": self.n_b,
            "counts": self.counts(),
            "divergent": self.divergent,
            "divergences": [d.to_dict() for d in self.divergences],
            "notes": list(self.notes),
        }


def _meta_int(meta: Optional[Dict[str, Any]], name: str) -> int:
    if not meta:
        return 0
    try:
        return int(meta.get(name) or 0)
    except (TypeError, ValueError):
        return 0


def _drop_horizon(meta: Optional[Dict[str, Any]]) -> Optional[float]:
    """Latest simulated time the counterpart's ring buffer evicted."""
    if not meta or not meta.get("dropped"):
        return None
    window = meta.get("dropped_window")
    if not window:
        return None
    return float(window[1])


def _lis_membership(positions: Sequence[int]) -> List[bool]:
    """True for elements on one longest strictly increasing subsequence
    (patience sorting with parent pointers, O(n log n)); everything off
    the subsequence is a genuinely displaced element."""
    n = len(positions)
    if n == 0:
        return []
    tails: List[int] = []          # indices into positions
    tail_values: List[int] = []
    parents = [-1] * n
    for i, value in enumerate(positions):
        j = bisect.bisect_left(tail_values, value)
        parents[i] = tails[j - 1] if j > 0 else -1
        if j == len(tails):
            tails.append(i)
            tail_values.append(value)
        else:
            tails[j] = i
            tail_values[j] = value
    member = [False] * n
    i = tails[-1]
    while i != -1:
        member[i] = True
        i = parents[i]
    return member


def _same_value(a: Any, b: Any) -> bool:
    """Do two field values certainly canonicalise to the same JSON?

    Type-strict, because ``1``, ``1.0`` and ``True`` compare equal but
    serialise differently; floats also by sign of zero (``0.0 == -0.0``)
    and never when NaN; tuples and lists element-wise and
    interchangeably, as :func:`~repro.align.keying.canonical_fields`
    collapses them.  Any other type answers False -- "cannot tell".
    """
    kind = type(a)
    if kind is tuple or kind is list:
        other = type(b)
        return ((other is tuple or other is list) and len(a) == len(b)
                and all(map(_same_value, a, b)))
    if kind is not type(b):
        return False
    if kind is float:
        return a == b and (a != 0.0
                           or math.copysign(1.0, a) == math.copysign(1.0, b))
    if kind is int or kind is str or kind is bool or a is None:
        return a == b
    return False


def _identical(a: TraceRecord, b: TraceRecord) -> bool:
    """Sufficient test that two records get the same logical key and the
    same canonical value: same kind, source and field names in the same
    order, every non-volatile value equal under :func:`_same_value`.
    False means "differ or cannot tell" and sends the pair of streams to
    the keyed alignment, which decides."""
    if a.kind != b.kind or a.source != b.source:
        return False
    fields_a, fields_b = a.fields, b.fields
    if len(fields_a) != len(fields_b):
        return False
    for (name, va), (name_b, vb) in zip(fields_a.items(), fields_b.items()):
        if name != name_b:
            return False
        if name not in VOLATILE_FIELDS and not _same_value(va, vb):
            return False
    return True


def align(
    records_a: Sequence[TraceRecord],
    records_b: Sequence[TraceRecord],
    meta_a: Optional[Dict[str, Any]] = None,
    meta_b: Optional[Dict[str, Any]] = None,
    structural_only: bool = False,
) -> Alignment:
    """Classify every record of two streams; see the module docstring.

    ``structural_only`` compares keys only (is the protocol *shape*
    identical?) and never reports value drift; the default also
    compares every non-volatile field.
    """
    records_a = list(records_a)
    records_b = list(records_b)
    result = Alignment(n_a=len(records_a), n_b=len(records_b))

    dropped = bool(_meta_int(meta_a, "dropped")) \
        or bool(_meta_int(meta_b, "dropped"))
    if dropped:
        result.notes.append(
            "ring-buffer evictions present; per-key occurrence indices "
            "counted from the stream end so surviving suffixes align"
        )
    for run, meta in (("A", meta_a), ("B", meta_b)):
        torn = _meta_int(meta, "torn")
        if torn:
            result.notes.append(
                f"run {run}'s trace file ends in {torn} torn line(s): the "
                f"record being written there is not in its stream"
            )

    # compare first: pairwise-identical streams key, canonicalise and
    # order identically, so every record is matched and nothing below
    # could find a divergence
    if len(records_a) == len(records_b) \
            and all(map(_identical, records_a, records_b)):
        result.matched = len(records_a)
        return result

    keyed_a = key_records(records_a, reverse_occurrence=dropped)
    keyed_b = key_records(records_b, reverse_occurrence=dropped)

    by_key_a = {kr.key: kr for kr in keyed_a}
    by_key_b = {kr.key: kr for kr in keyed_b}
    horizon_a = _drop_horizon(meta_a)
    horizon_b = _drop_horizon(meta_b)
    divergences: List[Divergence] = []

    def one_sided(kr: KeyedRecord, category: str, run: str,
                  horizon: Optional[float]) -> None:
        # a record the counterpart's ring buffer evicted is accounted
        # for, not divergent
        if horizon is not None and kr.record.time <= horizon + _EPS:
            result.excused += 1
            return
        wrank, kind, epoch, occ = kr.key
        where = f"rank {wrank}" if wrank is not None else "global"
        epoch_txt = f" epoch {epoch:g}" if epoch is not None else ""
        divergences.append(Divergence(
            category=category,
            layer=kr.layer,
            key=kr.key,
            time=kr.record.time,
            summary=(f"{kind} ({where}{epoch_txt}, occurrence {occ}) "
                     f"present only in run {run}"),
            briefs=[f"{run}: {kr.record.brief()}"],
        ))

    matched_a: List[KeyedRecord] = []
    for kr in keyed_a:
        other = by_key_b.get(kr.key)
        if other is None:
            one_sided(kr, "missing", "A", horizon_b)
            continue
        if not structural_only and kr.canonical != other.canonical:
            drifted = _drifted_fields(kr.record, other.record)
            divergences.append(Divergence(
                category="value",
                layer=kr.layer,
                key=kr.key,
                time=min(kr.record.time, other.record.time),
                summary=(f"{kr.kind} value drift on "
                         f"{', '.join(drifted) or 'fields'} "
                         f"(rank {kr.wrank}, occurrence {kr.occurrence})"),
                briefs=[f"A: {kr.record.brief()}",
                        f"B: {other.record.brief()}"],
                fields=drifted,
            ))
            continue
        matched_a.append(kr)
        result.matched += 1
    for kr in keyed_b:
        if kr.key not in by_key_a:
            one_sided(kr, "extra", "B", horizon_a)

    # order check over the matched protocol anchors: a key off the
    # longest common (increasing) order is genuinely displaced
    anchors = [kr for kr in matched_a if kr.kind in ANCHOR_KINDS]
    pos_b = {kr.key: i for i, kr in enumerate(keyed_b)}
    membership = _lis_membership([pos_b[kr.key] for kr in anchors])
    for kr, in_order in zip(anchors, membership):
        if in_order:
            continue
        result.matched -= 1
        other = by_key_b[kr.key]
        divergences.append(Divergence(
            category="reorder",
            layer=kr.layer,
            key=kr.key,
            time=min(kr.record.time, other.record.time),
            summary=(f"{kr.kind} (rank {kr.wrank}, occurrence "
                     f"{kr.occurrence}) ordered differently among the "
                     f"protocol anchors in run B"),
            briefs=[f"A: {kr.record.brief()}", f"B: {other.record.brief()}"],
        ))

    # same-instant divergences: the lowest layer of the stack first
    divergences.sort(key=lambda d: (
        d.time,
        LAYERS.index(d.layer) if d.layer in LAYERS else 99,
        CATEGORIES.index(d.category),
    ))
    result.divergences = divergences
    return result


def _drifted_fields(a: TraceRecord, b: TraceRecord) -> List[str]:
    names: List[str] = []
    if a.source != b.source:
        names.append("source")
    for name in sorted(set(a.fields) | set(b.fields)):
        if name in VOLATILE_FIELDS:
            continue
        va, vb = a.fields.get(name), b.fields.get(name)
        if isinstance(va, tuple):
            va = list(va)
        if isinstance(vb, tuple):
            vb = list(vb)
        if va != vb:
            names.append(name)
    return names


# -- first-divergence root-causing ---------------------------------------


def _context_briefs(
    records: Sequence[TraceRecord],
    at: float,
    before: int = 3,
    after: int = 2,
) -> List[str]:
    """Protocol-critical briefs around simulated time ``at``."""
    spine = [r for r in records if protocol_critical(r.kind)]
    idx = bisect.bisect_left([r.time for r in spine], at)
    lo = max(0, idx - before)
    hi = min(len(spine), idx + after + 1)
    return [r.brief() for r in spine[lo:hi]]


def first_divergence_report(
    alignment: Alignment,
    records_a: Sequence[TraceRecord],
    records_b: Sequence[TraceRecord],
) -> Dict[str, Any]:
    """JSON-ready root-cause report for the earliest divergence.

    Carries the divergence itself (layer-attributed, with its own
    briefs), the causal context briefs from both runs around the
    divergence time, and the downstream deltas: wall time, recovery
    latency, and the per-layer recovery path.
    """
    records_a = list(records_a)
    records_b = list(records_b)
    out: Dict[str, Any] = alignment.to_dict()
    wall_a = records_a[-1].time if records_a else 0.0
    wall_b = records_b[-1].time if records_b else 0.0
    path_a = recovery_path(records_a)
    path_b = recovery_path(records_b)
    layers = sorted(set(path_a) | set(path_b))
    out["downstream"] = {
        "wall_time": {
            "a": wall_a, "b": wall_b, "delta": wall_b - wall_a,
        },
        "recovery_latency": {
            "a": path_a.get("total"),
            "b": path_b.get("total"),
            "delta": (
                path_b["total"] - path_a["total"]
                if "total" in path_a and "total" in path_b else None
            ),
        },
        "recovery_path": {
            layer: {
                "a": path_a.get(layer),
                "b": path_b.get(layer),
                "delta": (
                    path_b[layer] - path_a[layer]
                    if layer in path_a and layer in path_b else None
                ),
            }
            for layer in layers if layer != "total"
        },
    }
    first = alignment.first
    if first is not None:
        entry = first.to_dict()
        entry["context_a"] = _context_briefs(records_a, first.time)
        entry["context_b"] = _context_briefs(records_b, first.time)
        out["first"] = entry
    else:
        out["first"] = None
    return out


def audit_traces(trace_a: Any, trace_b: Any) -> List[Dict[str, Any]]:
    """Align two live :class:`~repro.sim.trace.Trace` objects; returns
    JSON-ready divergence dicts (the ``RunReport.divergences`` payload).

    The metas are taken from the traces' own drop accounting, so a
    ring-buffered recording audits against a full replay without
    blaming the records its ring evicted.
    """
    from repro.monitor.trace_io import trace_meta

    alignment = align(
        list(trace_a), list(trace_b),
        meta_a=trace_meta(trace_a), meta_b=trace_meta(trace_b),
    )
    return [d.to_dict() for d in alignment.divergences]
