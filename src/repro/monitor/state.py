"""Protocol-state reconstruction: every rank's state at a simulated time.

The one fold of per-rank protocol state -- liveness, exit, Fenix role and
generation, spare activation, communicator membership, repair-gate
occupancy, last VeloC checkpoint/restore, last IMR store, open failures.
The monitors, live's series, ``monitor explain`` and the Chrome exporter
read it instead of keeping their own.  ``python -m repro.monitor state
--at <t>`` renders it: "what was everyone doing at time t".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.trace import TraceListener, TraceRecord
from repro.vocabulary import (
    ATTEMPT_WORLD,
    CRASH_KIND,
    KILL_KINDS,
    RECOVERY_DONE_KINDS,
    REPAIR_DONE_KINDS,
    RESILIENT_COMM,
    parse_source,
    world_rank,
)


@dataclass
class RankState:
    """One world rank's reconstructed protocol state."""

    world_rank: int
    #: the rank's ``rank_dead`` record (None: it is alive)
    dead: Optional[TraceRecord] = None
    exited: bool = False
    role: Optional[str] = None
    generation: int = 0
    #: the latest ``spare_activated`` record that gave this spare a slot
    activated: Optional[TraceRecord] = None
    #: waiting at the repair gate (arrived, repair not yet finalized)
    at_gate: bool = False
    last_checkpoint: Optional[int] = None
    last_recover: Optional[str] = None  # "v3 (scratch)"
    last_imr_store: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.dead is None

    @property
    def spare(self) -> bool:
        """An idle spare: alive, SPARE, and not activated into a slot."""
        return self.alive and self.role == "SPARE" and self.activated is None

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


class ProtocolStateTracker(TraceListener):
    """Folds records into per-rank states."""

    #: what :class:`MonitorSuite` feeds it; any other record of a rank
    #: only makes the rank known to :attr:`ranks`
    KINDS = frozenset({"comm_create", "rank_dead", "rank_exit",
                       "gate_arrive", "role", "spare_activated",
                       "checkpoint", "imr_store"}
                      ).union(KILL_KINDS, RECOVERY_DONE_KINDS,
                              REPAIR_DONE_KINDS)

    def __init__(self) -> None:
        #: the kill of each failure no data recovery closed yet (a crash
        #: joins an open one); they outlive a world, as a fail-restart
        #: job recovers by relaunching
        self.failures: List[TraceRecord] = []
        self.begin_world()

    def begin_world(self) -> None:
        """Everything else kept here is scoped to one MPI world (the rule
        of :meth:`repro.monitor.base.ProtocolMonitor.begin_world`): a
        relaunch's ranks are new processes that earned none of it."""
        self.ranks: Dict[int, RankState] = {}
        self.generation = 0
        #: communicator name -> its world-rank members
        self.comms: Dict[str, Sequence[int]] = {}
        #: the members of the attempt world: every process of the launch
        self.world: Sequence[int] = ()
        #: slot -> world rank map of the current resilient communicator
        self.slots: Sequence[int] = ()

    def _rank(self, rank: int) -> RankState:
        st = self.ranks.get(rank)
        if st is None:  # (setdefault would build a state per record)
            st = self.ranks[rank] = RankState(rank)
        return st

    def dead(self, ranks: Iterable[int]) -> List[TraceRecord]:
        """The ``rank_dead`` records of those of ``ranks`` that died."""
        found = map(self.ranks.get, ranks)
        return [st.dead for st in found
                if st is not None and st.dead is not None]

    def feed(self, rec: TraceRecord) -> None:
        """Fold one record; a record missing a field read here, or holding
        one of the wrong type, comes from outside and is skipped."""
        kind = rec.kind
        if kind in RECOVERY_DONE_KINDS:
            self.failures = []
        try:
            if kind in KILL_KINDS:
                if kind != CRASH_KIND or not self.failures:
                    self.failures.append(rec)
            elif kind == "comm_create":
                members = rec["members"]
                if rec.source.startswith(RESILIENT_COMM):
                    self.slots = members
                elif ATTEMPT_WORLD in rec.source:  # a (re)launch
                    self.begin_world()
                    self.world = members
                self.comms[rec.source] = members
            elif kind == "rank_dead":
                st = self._rank(rec["rank"])
                if st.dead is None:
                    st.dead = rec
            elif kind == "rank_exit":
                self._rank(rec["rank"]).exited = True
            elif kind == "spare_activated":
                self._rank(rec["spare"]).activated = rec
            elif kind == "gate_arrive" and rec.source == "fenix":
                self._rank(rec["rank"]).at_gate = True
            elif kind == "role" and rec.source == "fenix":
                role, generation = rec["role"], rec["generation"]
                st = self._rank(rec["rank"])
                st.role, st.generation, st.at_gate = role, generation, False
            elif kind in REPAIR_DONE_KINDS and rec.source == "fenix":
                self.generation = rec["generation"]
                for st in self.ranks.values():
                    st.at_gate = False
            else:
                layer, n = parse_source(rec.source)
                if n is None or not layer:
                    return
                st = self._rank(world_rank(rec.source, rec.fields,
                                           self.slots))
                if layer == "veloc" and kind == "checkpoint":
                    st.last_checkpoint = int(rec["version"])
                elif layer == "veloc" and kind == "recover":
                    st.last_recover = (
                        f"v{int(rec['version'])} "
                        f"({rec.fields.get('tier', '?')})")
                elif layer == "imr" and kind == "imr_store":
                    st.last_imr_store = int(rec["version"])
        except (KeyError, TypeError, ValueError):
            pass


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
