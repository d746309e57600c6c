"""Protocol-state reconstruction: every rank's state at a simulated time.

Drives the same record stream as the monitors, but instead of checking
invariants it *keeps* the state: liveness, Fenix role and generation,
repair-gate occupancy, last VeloC checkpoint/restore, last IMR store.
``python -m repro.monitor state --at <t>`` renders the result, answering
"what was everyone doing at time t" without reading the raw trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.sim.trace import TraceRecord
from repro.vocabulary import (
    ATTEMPT_WORLD,
    REPAIR_DONE_KINDS,
    RESILIENT_COMM,
    parse_source,
    world_rank,
)


@dataclass
class RankState:
    """One world rank's reconstructed protocol state."""

    world_rank: int
    alive: bool = True
    exited: bool = False
    role: Optional[str] = None
    generation: int = 0
    #: waiting at the repair gate (arrived, repair not yet finalized)
    at_gate: bool = False
    last_checkpoint: Optional[int] = None
    last_recover: Optional[str] = None  # "v3 (scratch)"
    last_imr_store: Optional[int] = None

    def describe(self) -> str:
        if not self.alive:
            status = "DEAD"
        elif self.exited:
            status = "EXITED"
        elif self.at_gate:
            status = "AT-GATE"
        else:
            status = "RUNNING"
        return status


class ProtocolStateTracker:
    """Replays records up to a cutoff time into per-rank states."""

    def __init__(self) -> None:
        self.begin_world()

    def begin_world(self) -> None:
        """Everything kept here is scoped to one MPI world (the rule of
        :meth:`repro.monitor.base.Monitor.begin_world`): a relaunch's
        ranks are new processes that earned none of it."""
        self.ranks: Dict[int, RankState] = {}
        self.generation = 0
        #: slot -> world rank map of the current resilient communicator
        self._members: Sequence[int] = ()

    def _rank(self, rank: int) -> RankState:
        return self.ranks.setdefault(rank, RankState(rank))

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "comm_create":
            if rec.source.startswith(RESILIENT_COMM):
                self._members = rec["members"]
            elif ATTEMPT_WORLD in rec.source:  # the world of a (re)launch
                self.begin_world()
        elif kind == "rank_dead":
            self._rank(rec["rank"]).alive = False
        elif kind == "rank_exit":
            self._rank(rec["rank"]).exited = True
        elif kind == "gate_arrive" and rec.source == "fenix":
            self._rank(rec["rank"]).at_gate = True
        elif kind == "role" and rec.source == "fenix":
            st = self._rank(rec["rank"])
            st.role = rec["role"]
            st.generation = rec["generation"]
            st.at_gate = False
        elif kind in REPAIR_DONE_KINDS and rec.source == "fenix":
            self.generation = rec["generation"]
            for st in self.ranks.values():
                st.at_gate = False
        else:
            layer, n = parse_source(rec.source)
            if n is None or not layer:
                return
            st = self._rank(world_rank(rec.source, rec.fields, self._members))
            if layer == "veloc" and kind == "checkpoint":
                st.last_checkpoint = int(rec["version"])
            elif layer == "veloc" and kind == "recover":
                st.last_recover = (
                    f"v{int(rec['version'])} ({rec.fields.get('tier', '?')})"
                )
            elif layer == "imr" and kind == "imr_store":
                st.last_imr_store = int(rec["version"])

    def replay(self, records: Iterable[TraceRecord],
               at: Optional[float] = None) -> "ProtocolStateTracker":
        for rec in records:
            if at is not None and rec.time > at:
                break
            self.feed(rec)
        return self


def render_state(tracker: ProtocolStateTracker,
                 at: Optional[float] = None) -> str:
    """Aligned table of every rank's reconstructed state."""
    header = (f"protocol state at t={at:.6f}" if at is not None
              else "protocol state at end of trace")
    lines = [header,
             f"repair generation: {tracker.generation}",
             f"{'rank':>4}  {'status':<8}{'role':<11}{'gen':>3}  "
             f"{'last ckpt':<10}{'last restore':<14}{'imr':<6}"]
    for world_rank in sorted(tracker.ranks):
        st = tracker.ranks[world_rank]
        ckpt = f"v{st.last_checkpoint}" if st.last_checkpoint is not None else "-"
        imr = f"v{st.last_imr_store}" if st.last_imr_store is not None else "-"
        lines.append(
            f"{world_rank:>4}  {st.describe():<8}{st.role or '-':<11}"
            f"{st.generation:>3}  {ckpt:<10}{st.last_recover or '-':<14}"
            f"{imr:<6}".rstrip()
        )
    if not tracker.ranks:
        lines.append("(no rank activity before this time)")
    return "\n".join(lines)
