"""The alignment oracle: ``align`` as it stood before the compare-first pass.

This is ``repro.align.engine.align`` of the commit before that pass, body
verbatim but for the head-sampling filter, deleted from both since: both
streams are always keyed and canonicalised (one ``json.dumps`` per
record per side), whether or not they turn out to be identical.  The real
``align`` first asks whether the two streams are pairwise identical under
a type-strict rule and only then falls through to this path, so for every
pair of streams and metas ``align(...).to_dict()`` must equal
``reference_align(...).to_dict()`` -- the differential tests in
``test_compare_first.py`` hold it to that.

Only the function is kept; the result types and the helpers it calls
(``_lis_membership``, ``_drifted_fields``, the keying vocabulary) are the
real ones, which the compare-first change does not touch.
"""

from typing import Any, Dict, List, Optional, Sequence

from repro.align.engine import (
    _EPS,
    CATEGORIES,
    Alignment,
    Divergence,
    _drifted_fields,
    _drop_horizon,
    _lis_membership,
    _meta_int,
)
from repro.align.keying import KeyedRecord, key_records
from repro.sim.trace import TraceRecord
from repro.vocabulary import ANCHOR_KINDS, LAYERS as _LAYER_ORDER


def reference_align(
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
    keyed_a = key_records(records_a, reverse_occurrence=dropped)
    keyed_b = key_records(records_b, reverse_occurrence=dropped)
    if dropped:
        result.notes.append(
            "ring-buffer evictions present; per-key occurrence indices "
            "counted from the stream end so surviving suffixes align"
        )

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

    divergences.sort(key=lambda d: (
        d.time,
        _LAYER_ORDER.index(d.layer) if d.layer in _LAYER_ORDER else 99,
        CATEGORIES.index(d.category),
    ))
    result.divergences = divergences
    return result
