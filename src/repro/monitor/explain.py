"""Post-mortem recovery explainer: one failure, kill to re-entry.

Walks the trace from a kill record through the protocol stages
documented in docs/PROTOCOLS.md §1 --

- **t0 failure** -- the kill and the world marking the rank dead;
- **t1 detection & revoke** -- survivors hit the dead rank, revoke the
  resilient communicator, long-jump;
- **t2 rendezvous** -- every alive participant (survivors and spares)
  arrives at the repair gate, including further deaths during the wait;
- **t3 repair** -- spares substituted in place, membership decided;
- **t4 roles & agreement** -- role assignment and the repair agreement;
- **t5 restore & re-entry** -- data brought back per layer, computation
  resumes at the first post-repair checkpoint region --

and renders each stage's records through the shared timeline row
formatter (:func:`repro.telemetry.timeline.format_rows`).  Which kinds
make up a stage is :data:`repro.vocabulary.RECOVERY_STAGES`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.sim.trace import TraceRecord
from repro.telemetry.timeline import format_rows
from repro.vocabulary import (
    KILL_KINDS,
    REPAIR_DONE_KINDS,
    RECOVERY_STAGES as STAGES,
)


def find_failures(records: Sequence[TraceRecord],
                  rank: Optional[int] = None) -> List[TraceRecord]:
    """All kill records (optionally restricted to one world rank)."""
    return [r for r in records
            if r.kind in KILL_KINDS
            and (rank is None or r.fields.get("rank") == rank)]


def _row(rec: TraceRecord, i: int) -> Tuple[float, int, str, str, str]:
    from repro.telemetry.timeline import _fields_text
    detail = _fields_text(rec.fields)
    return (rec.time, i, rec.source, ".",
            rec.kind + (f" {detail}" if detail else ""))


def _section(title: str, note: str,
             records: Sequence[TraceRecord]) -> List[str]:
    lines = [f"-- {title}", f"   {note}"]
    if records:
        body = format_rows([_row(r, i) for i, r in enumerate(records)])
        lines.extend("   " + ln for ln in body.splitlines())
    else:
        lines.append("   (no records)")
    lines.append("")
    return lines


def explain_failure(records: Sequence[TraceRecord],
                    rank: Optional[int] = None,
                    occurrence: int = 0) -> str:
    """Render the recovery path of one failure as annotated text.

    ``rank`` picks which rank's death to explain (default: the first kill
    in the trace); ``occurrence`` selects among multiple kills of the
    same rank.
    """
    kills = find_failures(records, rank=rank)
    if not kills:
        target = f"rank {rank}" if rank is not None else "any rank"
        return f"no failure found for {target} in {len(records)} records"
    if occurrence >= len(kills):
        return (f"only {len(kills)} failure(s) found; "
                f"occurrence {occurrence} out of range")
    kill = kills[occurrence]
    dead_rank = kill.fields.get("rank")
    idx = records.index(kill)
    after = records[idx + 1:]

    # the repair that resolves this failure: first repair/abort after it
    repair = next((r for r in after
                   if r.source == "fenix" and r.kind in REPAIR_DONE_KINDS),
                  None)
    upto_repair = (after[:after.index(repair)] if repair is not None
                   else list(after))

    t0 = [kill] + [r for r in upto_repair
                   if r.kind == "rank_dead" and r.fields.get("rank") == dead_rank]
    t1 = [r for r in upto_repair if r.kind in STAGES["detection"]]
    t2 = [r for r in upto_repair if r.kind in STAGES["rendezvous"]]
    late_deaths = [r for r in upto_repair
                   if r.kind in STAGES["failure"]
                   and r.fields.get("rank") != dead_rank]
    # Fenix's own repair steps; an MPI-level shrink is not one of them
    t3 = [r for r in upto_repair
          if r.kind in STAGES["repair"] and r.source == "fenix"]
    if repair is not None:
        t3.append(repair)

    lines: List[str] = []
    header = (f"recovery of rank {dead_rank} failure at "
              f"t={kill.time:.6f} (record #{kill.seq})")
    lines.append(header)
    lines.append("=" * len(header))
    lines.append("")
    lines.extend(_section(
        "t0 failure",
        f"rank {dead_rank} was killed; the world marks it dead.",
        t0,
    ))
    lines.extend(_section(
        "t1 detection & revoke",
        "survivors hit the dead rank, revoke the resilient communicator, "
        "and long-jump back into Fenix.",
        t1,
    ))
    lines.extend(_section(
        "t2 repair-gate rendezvous",
        "every alive participant (survivors and spares) arrives at the "
        "repair gate" + ("; further deaths during the wait shrink the "
                         "expected set:" if late_deaths else "."),
        t2 + late_deaths,
    ))
    if repair is None:
        lines.append("-- no repair found after this failure")
        lines.append("   (fail-restart strategy, aborted job, or a trace "
                     "truncated before the repair)")
        return "\n".join(lines)

    gen = repair.fields.get("generation")
    if repair.kind == "abort":
        lines.extend(_section(
            "t3 abort",
            f"spares exhausted under the abort policy; generation {gen} "
            "terminates the job.",
            t3,
        ))
        return "\n".join(lines)

    post = after[after.index(repair) + 1:]
    next_kill = next((r for r in post if r.kind in KILL_KINDS), None)
    window = post[:post.index(next_kill)] if next_kill is not None else post
    t4 = [r for r in window
          if r.source == "fenix" and r.kind in STAGES["roles"]]
    reentry = next((r for r in window if r.kind in STAGES["reentry"]), None)
    restores = [r for r in window
                if r.kind in STAGES["restore"]
                and (reentry is None or r.seq <= reentry.seq)]

    lines.extend(_section(
        "t3 repair",
        f"generation {gen}: spares substituted in place of the dead, "
        "rank ids stable for checkpoint keys.",
        t3,
    ))
    lines.extend(_section(
        "t4 roles & agreement",
        "each member learns its role; every alive rank observes the same "
        "repair result.",
        t4,
    ))
    lines.extend(_section(
        "t5 restore",
        "survivors restore from local tiers; recovered ranks pull from "
        "the buddy / persistent tiers.",
        restores,
    ))
    if reentry is not None:
        lines.extend(_section(
            "re-entry",
            "computation has resumed (first post-repair protected step).",
            [reentry],
        ))
    else:
        lines.append("-- re-entry: no post-repair protected step recorded")
    return "\n".join(lines)
