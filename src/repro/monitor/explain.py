"""The recovery walker: one failure, kill to re-entry, walked once.

Every report of a recovery -- ``monitor explain``, the downstream
recovery path of ``align``, the HTML report's exemplar -- is this module
run over trace records (every telemetered run records them; the JSONL
flight recorder is made of them).  :func:`episodes` cuts a stream into
one :class:`Episode` per failure:

- **the failure** -- a kill opens an episode, and so does a crash when
  none is open: the ranks that die of the kill join its episode
  (:data:`repro.vocabulary.KILL_KINDS`);
- **the stages** -- the episode's records of each stage of
  :data:`repro.vocabulary.RECOVERY_STAGES`, docs/PROTOCOLS.md §1's
  t0-t5 -- failure, detection & revoke, the repair-gate rendezvous,
  repair (or relaunch), roles & agreement, restore, recompute, re-entry;
- **the path** -- every participant (the members of the communicator or
  the attempt the recovery built) walks the rows of
  :data:`repro.vocabulary.RECOVERY_SPINE` over the job's records and its
  own; the participant whose walk ends last is the *critical rank*, and
  its edges tile ``[kill, re-entry]``, one layer per edge.

:func:`explain_failure` renders one episode as text;
:func:`recovery_path` is the per-layer dict ``align`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.monitor.state import ProtocolStateTracker
from repro.sim.trace import TraceRecord
from repro.vocabulary import (
    ATTEMPT_WORLD,
    RECOVERY_SPINE,
    RECOVERY_STAGES,
    world_rank,
)

_ROW_OF = {kind: row for row, (_layer, kinds) in enumerate(RECOVERY_SPINE)
           for kind in kinds}
_REENTRY_ROW = len(RECOVERY_SPINE) - 1


@dataclass
class Edge:
    """One layer's share of a recovery: ``[start, end]``, ended by
    ``record``."""

    layer: str
    start: float
    end: float
    record: TraceRecord

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Episode:
    """One failure, from its kill to the critical rank's re-entry."""

    kill: TraceRecord
    #: the kill to the critical re-entry (or, without one, to the next
    #: failure or the end of the trace)
    records: List[TraceRecord]
    #: the critical rank's walk; only the job's rows without a critical rank
    edges: List[Edge] = field(default_factory=list)
    #: every participant's re-entry time, in stream order
    reentry: Dict[int, float] = field(default_factory=dict)
    #: the participant that re-entered last (None: not all re-entered)
    critical_rank: Optional[int] = None

    @property
    def total(self) -> Optional[float]:
        if self.critical_rank is None:
            return None
        return self.reentry[self.critical_rank] - self.kill.time

    def stage(self, name: str) -> List[TraceRecord]:
        kinds = RECOVERY_STAGES[name]
        return [r for r in self.records if r.kind in kinds]

    def by_layer(self) -> Dict[str, float]:
        return {e.layer: e.duration for e in self.edges}


def _spine_row(rec: TraceRecord) -> Optional[int]:
    """The spine row a record can end (None: it ends none)."""
    if rec.kind == "comm_create" and ATTEMPT_WORLD not in rec.source:
        return None
    return _ROW_OF.get(rec.kind)


def _walk(window: Sequence[TraceRecord], owners: Sequence[Optional[int]],
          rank: Optional[int]) -> Tuple[List[Edge], Optional[int]]:
    """One participant's spine edges over the job's records and its own
    (``rank`` None: the job's alone), plus the window index of its
    re-entry (None: it has none)."""
    edges: List[Edge] = []
    cursor = window[0].time
    row, last, own = -1, -1, False
    for i, (rec, owner) in enumerate(zip(window, owners)):
        if owner is not None and owner != rank:
            continue
        r = _spine_row(rec)
        if r is None or r < row:
            continue
        if r > row and last >= 0:
            end = window[last]
            edges.append(Edge(RECOVERY_SPINE[row][0], cursor, end.time, end))
            cursor = end.time
        row, last, own = r, i, owner is not None
        if r == _REENTRY_ROW:
            break
    if last >= 0:
        end = window[last]
        edges.append(Edge(RECOVERY_SPINE[row][0], cursor, end.time, end))
    return edges, (last if own else None)


def episodes(records: Sequence[TraceRecord]) -> List[Episode]:
    """One :class:`Episode` per failure, in trace order: each opens where
    :class:`~repro.monitor.state.ProtocolStateTracker` opens a failure."""
    records = list(records)
    state = ProtocolStateTracker()
    owners: List[Optional[int]] = []
    #: members of the newest resilient communicator, else of the world
    groups: List[Sequence[int]] = []
    starts: List[int] = []
    for i, rec in enumerate(records):
        state.feed(rec)
        try:  # best-effort attribution: trace files come from outside
            owners.append(world_rank(rec.source, rec.fields, state.slots))
        except (TypeError, ValueError):
            owners.append(None)
        groups.append(state.slots or state.world)
        if state.failures and state.failures[-1] is rec:
            starts.append(i)
    bounds = starts + [len(records)]
    return [_episode(records[lo:hi], owners[lo:hi], groups[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


def _episode(window: List[TraceRecord], owners: List[Optional[int]],
             groups: List[Sequence[int]]) -> Episode:
    job_edges, _ = _walk(window, owners, None)
    # the participants: the group the repair or relaunch left standing
    cursor = job_edges[-1].end if job_edges else window[0].time
    at = 0
    while at + 1 < len(window) and window[at + 1].time <= cursor:
        at += 1
    ends: Dict[int, int] = {}
    walks: Dict[int, List[Edge]] = {}
    for rank in groups[at]:
        walks[rank], end = _walk(window, owners, rank)
        if end is not None:
            ends[rank] = end
    order = sorted(ends, key=ends.__getitem__)
    ep = Episode(kill=window[0], records=window, edges=job_edges,
                 reentry={r: window[ends[r]].time for r in order})
    if ends and len(ends) == len(walks):
        crit = order[-1]
        ep.critical_rank = crit
        ep.edges = walks[crit]
        ep.records = window[:ends[crit] + 1]
    return ep


def episode(records: Sequence[TraceRecord], rank: Optional[int] = None,
            occurrence: int = 0) -> Episode:
    """The ``occurrence``-th failure of world rank ``rank`` (default: of
    any rank); ``ValueError`` names what the trace lacks."""
    found = [ep for ep in episodes(records)
             if rank is None or ep.kill.fields.get("rank") == rank]
    if not found:
        target = f"rank {rank}" if rank is not None else "any rank"
        raise ValueError(f"no failure found for {target} in "
                         f"{len(records)} records")
    if occurrence >= len(found):
        raise ValueError(f"only {len(found)} failure(s) found; "
                         f"occurrence {occurrence} out of range")
    return found[occurrence]


def recovery_path(records: Sequence[TraceRecord]) -> Dict[str, float]:
    """The first failure's seconds per layer, plus ``total`` once every
    participant re-entered (empty: no failure)."""
    found = episodes(records)
    if not found:
        return {}
    out = found[0].by_layer()
    if found[0].total is not None:
        out["total"] = found[0].total
    return out


def _dropped_notice(meta: Optional[Mapping[str, Any]]) -> Optional[str]:
    """The line disclosing ring-buffer evictions (None: nothing evicted)."""
    dropped = int((meta or {}).get("dropped") or 0)
    if not dropped:
        return None
    lo, hi = meta.get("dropped_window") or (float("nan"), float("nan"))
    return (f"trace_dropped: {dropped} records evicted in "
            f"t=[{lo:.6f}, {hi:.6f}]; the walk below cannot see them")


#: stage -> (section title, what happens in it)
_STAGES = {
    "failure": ("t0 failure",
                "the rank was killed and the world marks it dead; ranks "
                "that die of it belong to this failure."),
    "detection": ("t1 detection & revoke",
                  "survivors hit the dead rank, revoke the resilient "
                  "communicator, and long-jump back into Fenix."),
    "rendezvous": ("t2 repair-gate rendezvous",
                   "every alive participant (survivors and spares) "
                   "arrives at the repair gate."),
    "repair": ("t3 repair",
               "spares substituted in place of the dead (rank ids stable "
               "for checkpoint keys), or the dead dropped (shrink)."),
    "roles": ("t4 roles & agreement",
              "each member learns its role; every alive rank observes "
              "the same repair result."),
    "restore": ("t5 restore",
                "survivors restore from local tiers; recovered ranks pull "
                "from the buddy / persistent tiers."),
    "recompute": ("recompute",
                  "the iterations since the restored checkpoint run "
                  "again."),
    "reentry": ("re-entry",
                "computation has resumed (first post-repair protected "
                "step)."),
}


def _section(title: str, note: str,
             records: Sequence[TraceRecord]) -> List[str]:
    lines = [f"-- {title}", f"   {note}"]
    lines.extend(f"   {r.brief()}" for r in records)
    if not records:
        lines.append("   (no records)")
    return lines + [""]


def _render(ep: Episode) -> str:
    """One episode as text: its stages, then its path."""
    header = (f"recovery of rank {ep.kill.fields.get('rank')} failure at "
              f"t={ep.kill.time:.6f} (record #{ep.kill.seq})")
    lines = [header, "=" * len(header), ""]
    layers = ep.by_layer()
    for stage in RECOVERY_STAGES:
        title, note = _STAGES[stage]
        records = ep.stage(stage)
        if stage == "repair" and "process" in layers:
            title = "t3 relaunch"
            note = ("mpirun aborts the job; the harness tears it down and "
                    "relaunches every rank from the persistent tier.")
            records += [e.record for e in ep.edges if e.layer == "process"]
        elif stage == "repair" and "fenix" not in layers:
            note = ("no repair found after this failure (aborted job, or "
                    "a trace truncated before the repair).")
        lines.extend(_section(title, note, records))
    total = ep.total
    if total is None:
        lines.append("recovery path: not every participant re-entered "
                     "before the next failure or the end of the trace")
    else:
        lines.append(f"recovery path: {total:.6f} s from the kill to the "
                     f"re-entry of rank {ep.critical_rank} (critical)")
    for e in ep.edges:
        share = f" ({e.duration / total:6.1%})" if total else ""
        lines.append(f"  [{e.layer:<9}] +{e.duration:.6f} s{share}  "
                     f"t={e.start:.6f} -> {e.end:.6f}  {e.record.kind}")
    if ep.reentry:
        lines.append("")
        lines.append("per-rank re-entry (critical rank last):")
        for r, t in ep.reentry.items():
            mark = "  <- critical" if r == ep.critical_rank else ""
            lines.append(f"  rank {r}: t={t:.6f}{mark}")
    return "\n".join(lines)


def explain_failure(records: Sequence[TraceRecord],
                    meta: Optional[Mapping[str, Any]] = None,
                    rank: Optional[int] = None,
                    occurrence: int = 0) -> str:
    """Render the recovery of one failure as annotated text.

    ``rank`` picks which rank's death to explain (default: the first
    failure in the trace); ``occurrence`` selects among several failures
    of that rank.  ``meta`` is the trace's drop accounting
    (:func:`repro.monitor.trace_io.read_trace`): a trace its ring buffer
    evicted from says so first, whatever is selected.
    """
    notice = _dropped_notice(meta)
    lines = [notice, ""] if notice else []
    try:
        lines.append(_render(episode(records, rank, occurrence)))
    except ValueError as exc:
        lines.append(str(exc))
    return "\n".join(lines)
