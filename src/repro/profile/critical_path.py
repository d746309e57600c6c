"""Recovery critical path: the longest kill -> re-entry dependency chain.

The simulated analogue of the paper's Figure-5 recovery breakdown: after
a kill, every surviving/recovered rank walks detection -> repair-gate
rendezvous -> Fenix repair -> KR reset/restore -> data recovery ->
recompute -> first post-repair checkpoint (re-entry).  The *critical
path* is the chain of the rank whose re-entry completes last; each edge
carries the layer that owns it (ULFM vs Fenix vs KR vs VeloC vs
recompute), so the report answers "which layer bounds recovery time?".

Works on the span/instant stream (:class:`~repro.telemetry.spans.Tracer`);
fail-restart strategies (no Fenix repair) are walked through the job
teardown/relaunch spans instead of the repair gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.vocabulary import (
    KILL_KINDS,
    RECOVER_SPANS,
    REENTRY_SPANS,
    parse_source,
    world_rank,
)


@dataclass
class Edge:
    """One stage of the chain: ``[start, end]`` owned by ``layer``."""

    name: str
    layer: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest kill -> re-entry chain of one failure."""

    kill_rank: int
    kill_time: float
    critical_rank: int
    reentry_time: float
    edges: List[Edge] = field(default_factory=list)
    #: every rank's re-entry completion time (the critical rank is argmax)
    chains: Dict[int, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.reentry_time - self.kill_time

    def by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.edges:
            out[e.layer] = out.get(e.layer, 0.0) + e.duration
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kill_rank": self.kill_rank,
            "kill_time": self.kill_time,
            "critical_rank": self.critical_rank,
            "reentry_time": self.reentry_time,
            "total": self.total,
            "edges": [
                {"name": e.name, "layer": e.layer, "start": e.start,
                 "end": e.end, "duration": e.duration}
                for e in self.edges
            ],
            "by_layer": self.by_layer(),
            "chains": {str(r): t for r, t in sorted(self.chains.items())},
        }


def _source_rank(source: str) -> Optional[int]:
    """The N of a process track ``rankN``; None for every other source."""
    track, n = parse_source(source)
    return None if track else n


def find_kills(telemetry: Any, rank: Optional[int] = None) -> List[Any]:
    """All ``rank_killed`` instants, time-ordered (optionally one rank)."""
    kills = [r for r in telemetry.tracer.instants if r.name in KILL_KINDS]
    if rank is not None:
        kills = [r for r in kills if _source_rank(r.source) == rank]
    return sorted(kills, key=lambda r: (r.start, r.sid))


def extract_critical_path(
    telemetry: Any,
    rank: Optional[int] = None,
    occurrence: int = 0,
) -> CriticalPath:
    """Walk one failure's recovery DAG and return its longest chain.

    ``rank`` selects whose death to analyze (default: the first kill);
    ``occurrence`` selects among repeated kills of the same rank.
    Raises ``ValueError`` when the requested failure does not exist.
    """
    tracer = telemetry.tracer
    all_kills = find_kills(telemetry)
    kills = (all_kills if rank is None
             else [k for k in all_kills if _source_rank(k.source) == rank])
    if not kills:
        raise ValueError("no rank_killed record"
                         + (f" for rank {rank}" if rank is not None else ""))
    if occurrence >= len(kills):
        raise ValueError(f"only {len(kills)} kill(s) recorded; "
                         f"occurrence {occurrence} out of range")
    kill = kills[occurrence]
    t0 = kill.start
    dead_rank = _source_rank(kill.source)
    later = [k.start for k in all_kills if k.start > t0]
    window_end = min(later) if later else float("inf")

    def in_window(t: float) -> bool:
        return t0 <= t < window_end

    spans = [s for s in tracer.spans
             if s.end is not None and in_window(s.start)]
    instants = [i for i in tracer.instants if in_window(i.start)]

    repairs = [s for s in spans if s.name == "fenix.repair"]
    if repairs:
        t_repair = max(s.end for s in repairs)
        detect_of = {}
        for i in instants:
            if i.name == "fenix.detect":
                r = _source_rank(i.source)
                if r is not None and r not in detect_of:
                    detect_of[r] = i.start
        revokes = [i.start for i in instants if i.name == "revoke"]
        t_revoke = min(revokes) if revokes else t0
        pre_edges = None
        participants = sorted({_source_rank(s.source) for s in repairs}
                              - {None})
        arrival_of = {r: min(s.start for s in repairs
                             if _source_rank(s.source) == r)
                      for r in participants}
    else:
        # fail-restart: mpirun aborts the job, the harness tears it down
        # and relaunches; recovery happens in the next attempt's world
        relaunch = [s for s in spans if s.name == "job.relaunch"]
        teardown = [s for s in spans if s.name == "job.teardown"]
        t_teardown = max((s.end for s in teardown), default=t0)
        t_repair = max((s.end for s in relaunch), default=t_teardown)
        pre_edges = [
            Edge("abort+teardown", "process", t0, t_teardown),
            Edge("relaunch", "process", t_teardown, t_repair),
        ]
        participants = sorted({
            _source_rank(s.source) for s in spans
            if s.name in RECOVER_SPANS + REENTRY_SPANS + ("recompute",)
            and s.start >= t_repair and _source_rank(s.source) is not None
        } | {
            world_rank(s.source, s.fields) for s in spans
            if s.name in RECOVER_SPANS and s.start >= t_repair
            and world_rank(s.source, s.fields) is not None
        })
        detect_of, arrival_of, t_revoke = {}, {}, t0

    eps = 1e-12

    def rank_stage_times(r: int) -> Dict[str, float]:
        """Per-rank completion times of each post-repair stage."""
        mine = [s for s in spans if s.start >= t_repair - eps]
        kr_end = max((s.end for s in mine
                      if s.name in ("kr.latest", "kr.restore")
                      and _source_rank(s.source) == r), default=t_repair)
        dr_end = max((s.end for s in mine
                      if s.name in RECOVER_SPANS
                      and world_rank(s.source, s.fields) == r), default=kr_end)
        rc = [s for s in mine
              if s.name == "recompute" and _source_rank(s.source) == r]
        rc_end = max((s.end for s in rc), default=dr_end)
        reentry = min((s.end for s in mine
                       if s.name in REENTRY_SPANS
                       and world_rank(s.source, s.fields) == r
                       and s.end >= rc_end - eps), default=rc_end)
        return {"kr": kr_end, "recover": dr_end,
                "recompute": rc_end, "reentry": max(reentry, rc_end)}

    chains = {r: rank_stage_times(r)["reentry"] for r in participants
              if r is not None}
    if not chains:
        # degenerate window (trace ends at the kill): the dead rank is
        # its own chain and recovery never completed
        chains = {dead_rank: t_repair}
    crit = max(chains, key=lambda r: (chains[r], r))
    stages = rank_stage_times(crit)

    edges: List[Edge] = []
    cursor = t0
    def push(name: str, layer: str, t: float) -> None:
        nonlocal cursor
        t = max(t, cursor)
        edges.append(Edge(name, layer, cursor, t))
        cursor = t

    if pre_edges is None:
        push("detect+revoke", "ulfm",
             max(detect_of.get(crit, t_revoke), t_revoke))
        push("rendezvous", "fenix",
             max(arrival_of.values()) if arrival_of else cursor)
        push("repair", "fenix", t_repair)
    else:
        for e in pre_edges:
            push(e.name, e.layer, e.end)
    push("kr reset/restore", "kr", stages["kr"])
    push("data recovery", "veloc", stages["recover"])
    push("recompute", "recompute", stages["recompute"])
    push("re-entry", "app", stages["reentry"])

    return CriticalPath(
        kill_rank=dead_rank if dead_rank is not None else -1,
        kill_time=t0,
        critical_rank=crit,
        reentry_time=stages["reentry"],
        edges=edges,
        chains=chains,
    )


def format_critical_path(cp: CriticalPath) -> str:
    header = (f"critical path: rank {cp.kill_rank} killed at "
              f"t={cp.kill_time:.6f} -> re-entry at t={cp.reentry_time:.6f} "
              f"({cp.total:.6f} s) via rank {cp.critical_rank}")
    lines = [header, "=" * len(header)]
    name_w = max((len(e.name) for e in cp.edges), default=4)
    for e in cp.edges:
        lines.append(f"  [{e.layer:<9}] {e.name:<{name_w}}  "
                     f"+{e.duration:.6f} s  "
                     f"(t={e.start:.6f} -> {e.end:.6f})")
    lines.append("")
    lines.append("per-layer totals:")
    for layer, dur in sorted(cp.by_layer().items(),
                             key=lambda kv: -kv[1]):
        share = dur / cp.total if cp.total > 0 else 0.0
        lines.append(f"  {layer:<9} {dur:.6f} s  ({share:.1%})")
    lines.append("")
    lines.append("per-rank re-entry (critical rank last):")
    for r, t in sorted(cp.chains.items(), key=lambda kv: (kv[1], kv[0])):
        marker = "  <- critical" if r == cp.critical_rank else ""
        lines.append(f"  rank {r}: t={t:.6f}{marker}")
    return "\n".join(lines)
