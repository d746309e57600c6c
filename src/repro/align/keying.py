"""Canonical logical keys for flight-recorder records.

Two traces of the same cell cannot be compared positionally (sequence
numbers shift the moment one extra record exists) or by timestamp (a
recovery that takes 0.1 s longer moves every later time).  Instead each
record is named by a *logical key*::

    (wrank, kind, epoch, occurrence)

- ``wrank`` -- the rank the record is keyed under: an explicit ``rank``
  field when the record carries one, else the ``rankN`` suffix of layer
  sources (``veloc.rank3``, ``kr.rank0``, ``imr.rank2``) taken as
  written -- a name both runs agree on, not an attribution: under
  ``veloc.``/``imr.`` it is a communicator slot, and who held it is
  :func:`repro.vocabulary.world_rank`'s question -- else the
  ``spare``/``member`` field, else None for global records
  (communicator events, server-side flushes);
- ``epoch`` -- the protocol epoch: Fenix ``generation``, else checkpoint
  ``version``, else application ``iteration``; None when the record has
  no epoch notion;
- ``occurrence`` -- the per-(wrank, kind, epoch) sequence index in
  stream order, which is what makes repeats (a recomputed region, a
  second kill of the same rank) individually addressable.

Values are compared through :func:`canonical_fields`: the source plus
every field *except* the :data:`VOLATILE_FIELDS` -- measurements that
legitimately differ between structurally identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord
from repro.vocabulary import PER_ITERATION_KINDS, layer_of, parse_source

#: record fields excluded from value comparison: host-ish measurements
#: and queue depths that may differ between structurally identical runs
#: (``seconds`` is a modelled duration -- it shifts whenever an earlier
#: divergence changes contention, which the alignment reports through
#: the diverging record itself, not through every downstream timing)
VOLATILE_FIELDS = frozenset({"seconds", "backlog", "eta_s"})


def protocol_critical(kind: str) -> bool:
    """True for kinds that mark a protocol step -- the skeleton.

    Default-deny: every kind is protocol-critical unless the vocabulary
    lists it in :data:`~repro.vocabulary.PER_ITERATION_KINDS`, so a kind
    added tomorrow joins the skeleton two traces must agree on.
    """
    return kind not in PER_ITERATION_KINDS


def record_wrank(rec: TraceRecord) -> Optional[int]:
    """The rank a record is keyed under, or None for global records."""
    value = rec.fields.get("rank")
    if isinstance(value, int):
        return value
    track, n = parse_source(rec.source)
    if track and n is not None:
        return n
    for name in ("spare", "member"):
        value = rec.fields.get(name)
        if isinstance(value, int):
            return value
    return None


def record_epoch(rec: TraceRecord) -> Optional[float]:
    """Protocol epoch: generation, else version, else iteration."""
    for name in ("generation", "version", "iteration"):
        value = rec.fields.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
    return None


def _jsonable(value: Any) -> Any:
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    return repr(value)


def canonical_fields(rec: TraceRecord) -> str:
    """Order-independent JSON of the record's comparable identity:
    source + every non-volatile field (tuples collapse to lists, so a
    replayed trace canonicalizes identically to a live one)."""
    payload: Dict[str, Any] = {"source": rec.source}
    for name, value in rec.fields.items():
        if name in VOLATILE_FIELDS:
            continue
        payload[name] = value
    return json.dumps(payload, sort_keys=True, default=_jsonable)


@dataclass(frozen=True)
class KeyedRecord:
    """One record plus its logical key, layer, and canonical value."""

    key: Tuple[Optional[int], str, Optional[float], int]
    record: TraceRecord
    layer: str
    canonical: str

    @property
    def wrank(self) -> Optional[int]:
        return self.key[0]

    @property
    def kind(self) -> str:
        return self.key[1]

    @property
    def epoch(self) -> Optional[float]:
        return self.key[2]

    @property
    def occurrence(self) -> int:
        return self.key[3]


def key_records(
    records: Sequence[TraceRecord],
    reverse_occurrence: bool = False,
) -> List[KeyedRecord]:
    """Assign logical keys to a record stream, in order.

    ``reverse_occurrence`` counts the per-key sequence index from the
    *end* of the stream instead of the start.  A ring buffer evicts the
    oldest records, so the surviving stream is a suffix; counting from
    the end keeps the suffixes of two traces aligned even when one lost
    a prefix (the evicted keys then surface as high-occurrence missing
    records inside the drop window, which the engine excuses).
    """
    bases = [
        (record_wrank(rec), rec.kind, record_epoch(rec)) for rec in records
    ]
    counts: Dict[Tuple, int] = {}
    if reverse_occurrence:
        for base in bases:
            counts[base] = counts.get(base, 0) + 1
    seen: Dict[Tuple, int] = {}
    out: List[KeyedRecord] = []
    for rec, base in zip(records, bases):
        index = seen.get(base, 0)
        seen[base] = index + 1
        occurrence = (counts[base] - 1 - index) if reverse_occurrence \
            else index
        out.append(KeyedRecord(
            key=(base[0], base[1], base[2], occurrence),
            record=rec,
            layer=layer_of(rec),
            canonical=canonical_fields(rec),
        ))
    return out
