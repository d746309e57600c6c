"""The protocol invariant monitors.

Each class checks one family of invariants from docs/PROTOCOLS.md against
the record stream; together they cover the three resilience layers:

- :class:`ULFMOrderMonitor` -- revoke precedes shrink/agree on a failed
  communicator; no operation completes on a communicator that a repair
  already retired (PROTOCOLS.md §1 t1, §4).
- :class:`RoleTransitionMonitor` -- Fenix role edges are legal per rank
  (INITIAL/SURVIVOR/RECOVERED/SPARE; §1 t4).
- :class:`RepairGateMonitor` -- repair-gate rendezvous completeness,
  generation sequencing, and no corpses in a repaired communicator
  (§1 t2-t3, including deaths during the gate wait).
- :class:`VersionMonitor` -- VeloC version monotonicity per rank and no
  ghost restores (§1 t5, §3).
- :class:`FlushMonitor` -- flush-before-restore: a persistent-tier
  restore requires the version's async flush to have completed (§3).
- :class:`BuddyMonitor` -- IMR buddy consistency: a buddy-tier restore
  must match a copy the owner actually shipped (§2).

Monitors are deliberately conservative: they only flag orderings that
the simulator can never legally produce, so a violation is always a bug
(or a deliberately corrupted trace), never noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.monitor.base import ProtocolMonitor
from repro.sim.trace import TraceRecord
from repro.vocabulary import parse_source


def _as_key(value) -> Tuple:
    """JSONL round-trips turn tuples into lists; normalize for lookups."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_key(v) for v in value)
    return value


class ULFMOrderMonitor(ProtocolMonitor):
    """Revoke-before-shrink/agree ordering on failed communicators."""

    KINDS = frozenset({"revoke", "agree", "shrink", "repair"})

    def begin_world(self) -> None:
        #: comm name -> the revoke record
        self._revoked: Dict[str, TraceRecord] = {}
        #: comm name -> the repair record that retired it
        self._retired: Dict[str, TraceRecord] = {}

    def _dead_members(self, comm: str) -> List[TraceRecord]:
        return self.state.dead(self.state.comms.get(comm, ()))

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "revoke":
            retired = self._retired.get(rec.source)
            if retired is not None:
                self.violate(
                    "op-on-retired-comm",
                    f"revoke of {rec.source} after its repair already "
                    "replaced it",
                    [retired, rec],
                )
            if (rec.source in self.state.comms
                    and not self._dead_members(rec.source)):
                self.violate(
                    "revoke-without-failure",
                    f"{rec.source} revoked but no member had died",
                    [rec],
                )
            self._revoked[rec.source] = rec
        elif kind in ("agree", "shrink") and rec.source != "fenix":
            # MPI-level collective completion on communicator rec.source
            retired = self._retired.get(rec.source)
            if retired is not None:
                self.violate(
                    "op-on-retired-comm",
                    f"{kind} completed on {rec.source} after its repair "
                    "already replaced it",
                    [retired, rec],
                )
            failed = rec.fields.get("failed") or []
            if failed and rec.source not in self._revoked:
                chain = self._dead_members(rec.source) + [rec]
                self.violate(
                    f"revoke-before-{kind}",
                    f"{kind} completed on failed communicator {rec.source} "
                    "before it was revoked",
                    chain,
                )
        elif kind == "shrink" and rec.source == "fenix":
            # Fenix repair path: membership of the old communicator is
            # decided; the old comm must already have been revoked
            old = rec.fields.get("comm")
            if rec.fields.get("dead") and old not in self._revoked:
                chain = self._dead_members(old) + [rec]
                self.violate(
                    "revoke-before-shrink",
                    f"Fenix shrank failed communicator {old} before it "
                    "was revoked",
                    chain,
                )
        elif kind == "repair":
            old = rec.fields.get("old_comm")
            if old is not None:
                if self._dead_members(old) and old not in self._revoked:
                    self.violate(
                        "revoke-before-repair",
                        f"repair replaced failed communicator {old} before "
                        "it was revoked",
                        self._dead_members(old) + [rec],
                    )
                self._retired[old] = rec


#: legal role edges; SPARE -> RECOVERED additionally needs spare_activated
_ROLE_EDGES: Dict[Optional[str], Set[str]] = {
    None: {"INITIAL", "SPARE"},
    "INITIAL": {"SURVIVOR"},
    "SURVIVOR": {"SURVIVOR"},
    "RECOVERED": {"SURVIVOR"},
    "SPARE": {"SPARE", "RECOVERED"},
}


class RoleTransitionMonitor(ProtocolMonitor):
    """Per-rank Fenix role state machine legality."""

    KINDS = frozenset({"role"})

    def begin_world(self) -> None:
        #: world rank -> its previous role record
        self._role: Dict[int, TraceRecord] = {}

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "role" and rec.source == "fenix":
            rank = rec["rank"]
            role = rec["role"]
            prev = self._role.get(rank)
            prev_name = prev["role"] if prev is not None else None
            deaths = self.state.dead([rank])
            if deaths:
                self.violate(
                    "role-on-dead-rank",
                    f"role {role} assigned to dead rank {rank}",
                    deaths + [rec],
                )
            if role not in _ROLE_EDGES.get(prev_name, set()):
                chain = ([prev] if prev is not None else []) + [rec]
                self.violate(
                    "illegal-role-edge",
                    f"rank {rank}: illegal role transition "
                    f"{prev_name or '(none)'} -> {role}",
                    chain,
                )
            elif prev_name == "SPARE" and role == "RECOVERED":
                act = self.state.ranks[rank].activated
                if act is None or act["generation"] != rec["generation"]:
                    self.violate(
                        "recovered-without-activation",
                        f"rank {rank} became RECOVERED in generation "
                        f"{rec['generation']} without a matching "
                        "spare_activated",
                        ([prev] if prev is not None else []) + [rec],
                    )
            self._role[rank] = rec


class RepairGateMonitor(ProtocolMonitor):
    """Repair-gate rendezvous completeness and generation sequencing."""

    KINDS = frozenset({"rank_dead", "shrink", "repair", "abort"})

    def begin_world(self) -> None:
        self._generation = 0
        self._deaths_since_repair: List[TraceRecord] = []
        self._last_repair: Optional[TraceRecord] = None

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind == "rank_dead":
            self._deaths_since_repair.append(rec)
        elif kind == "shrink" and rec.source == "fenix":
            deaths = self.state.dead(rec.fields.get("survivors", []))
            if deaths:
                self.violate(
                    "dead-survivor",
                    f"shrink for generation {rec.fields.get('generation')} "
                    f"kept dead rank(s) {[d['rank'] for d in deaths]} in "
                    "the survivor set",
                    deaths + [rec],
                )
        elif kind in ("repair", "abort") and rec.source == "fenix":
            generation = rec["generation"]
            if generation != self._generation + 1:
                chain = ([self._last_repair] if self._last_repair else []) + [rec]
                self.violate(
                    "generation-sequence",
                    f"{kind} generation {generation} does not follow "
                    f"{self._generation}",
                    chain,
                )
            self._generation = generation
            if not self._deaths_since_repair:
                self.violate(
                    "repair-without-failure",
                    f"{kind} generation {generation} with no rank death "
                    "since the previous repair",
                    [rec],
                )
            if kind == "repair":
                self._check_repair(rec)
                self._last_repair = rec
            self._deaths_since_repair = []

    def _check_repair(self, rec: TraceRecord) -> None:
        contributors = set(rec.fields.get("contributors", []))
        deaths = self.state.dead(rec.fields.get("members", []))
        if deaths:
            self.violate(
                "dead-member-in-repair",
                f"repair generation {rec['generation']} admitted dead "
                f"rank(s) {[d['rank'] for d in deaths]} into the new "
                "communicator",
                deaths + [rec],
            )
        # rendezvous completeness: every protocol participant (a rank with
        # a role) that is neither dead nor exited must have contributed --
        # a rank that died *during* the gate wait has its rank_dead record;
        # one waiting in Fenix_Finalize has not exited (PROTOCOLS.md §1)
        missing = sorted(
            w for w, st in self.state.ranks.items()
            if st.role is not None and st.alive and not st.exited
            and w not in contributors)
        if missing:
            self.violate(
                "incomplete-rendezvous",
                f"repair generation {rec['generation']} completed without "
                f"contribution from live rank(s) {missing}",
                [rec],
            )


class VersionMonitor(ProtocolMonitor):
    """VeloC checkpoint-version monotonicity and no ghost restores."""

    KINDS = frozenset({"rank_dead", "repair", "abort", "checkpoint",
                       "recover"})

    def __init__(self) -> None:
        super().__init__()
        #: source -> last checkpoint/recover record (monotonicity anchor)
        self._last: Dict[str, TraceRecord] = {}
        #: source -> {version: checkpoint record}; outlives a relaunch, as
        #: the PFS does (a later attempt restoring it is no ghost restore)
        self._checkpointed: Dict[str, Dict[int, TraceRecord]] = {}

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        if kind in ("rank_dead", "repair", "abort"):
            # a new epoch: version numbers may legitimately be replayed
            # after losing state.  A fail-restart job's opens at the death;
            # a Fenix job's at the repair decision -- checkpoints in flight
            # at the kill still land after the death, and the rollback may
            # go behind them
            self._last.clear()
            return
        if parse_source(rec.source)[0] != "veloc":
            return
        if kind == "checkpoint":
            version = int(rec["version"])
            prev = self._last.get(rec.source)
            if prev is not None and version <= int(prev["version"]):
                self.violate(
                    "version-monotonicity",
                    f"{rec.source} checkpointed version {version} after "
                    f"version {int(prev['version'])} with no failure "
                    "in between",
                    [prev, rec],
                )
            self._last[rec.source] = rec
            self._checkpointed.setdefault(rec.source, {})[version] = rec
        elif kind == "recover":
            version = int(rec["version"])
            known = self._checkpointed.get(rec.source, {})
            if version not in known:
                self.violate(
                    "ghost-restore",
                    f"{rec.source} restored version {version} that it "
                    "never checkpointed",
                    [rec],
                )
            self._last[rec.source] = rec


class FlushMonitor(ProtocolMonitor):
    """Flush-before-restore across the VeloC persistent tiers."""

    KINDS = frozenset({"checkpoint", "flush_done", "recover"})

    def __init__(self) -> None:
        super().__init__()
        #: (rank, version) -> checkpoint record
        self._ckpt: Dict[Tuple[int, int], TraceRecord] = {}
        #: (rank, version) -> flush_done record
        self._flushed: Dict[Tuple[int, int], TraceRecord] = {}

    @staticmethod
    def _key_pair(key) -> Optional[Tuple[int, int]]:
        k = _as_key(key)
        if isinstance(k, tuple) and len(k) == 4 and k[0] == "veloc":
            return (int(k[3]), int(k[2]))  # (rank, version)
        return None

    def feed(self, rec: TraceRecord) -> None:
        kind = rec.kind
        track, slot = parse_source(rec.source)
        if kind == "checkpoint" and track == "veloc":
            self._ckpt[(slot, int(rec["version"]))] = rec
        elif kind == "flush_done":
            pair = self._key_pair(rec.fields.get("key"))
            if pair is None:
                return
            if pair not in self._ckpt:
                self.violate(
                    "flush-unknown-version",
                    f"flush completed for rank {pair[0]} version {pair[1]} "
                    "which was never checkpointed",
                    [rec],
                )
            self._flushed[pair] = rec
        elif (kind == "recover" and track == "veloc"
                and rec.fields.get("tier") in ("pfs", "bb")):
            pair = (slot, int(rec["version"]))
            if pair not in self._flushed:
                chain = ([self._ckpt[pair]] if pair in self._ckpt else []) + [rec]
                self.violate(
                    "restore-unflushed",
                    f"rank {pair[0]} restored version {pair[1]} from the "
                    f"{rec['tier']} tier before its flush completed",
                    chain,
                )


class BuddyMonitor(ProtocolMonitor):
    """IMR buddy consistency: restores must match advertised copies."""

    KINDS = frozenset({"imr_store", "imr_buddy_send", "imr_buddy_recv",
                       "imr_restore"})

    def begin_world(self) -> None:
        #: (owner comm-rank, member, version) -> imr_store record
        self._stored: Dict[Tuple[int, int, int], TraceRecord] = {}
        #: (owner comm-rank, member, version) -> imr_buddy_send record
        self._sent: Dict[Tuple[int, int, int], TraceRecord] = {}

    @staticmethod
    def _key(rank: int, rec: TraceRecord) -> Tuple[int, int, int]:
        return (rank, int(rec["member"]), int(rec["version"]))

    def _latest_sent(self, rank: int, member: int) -> Optional[TraceRecord]:
        best = None
        for (r, m, _v), rec in self._sent.items():
            if r == rank and m == member:
                if best is None or rec.seq > best.seq:
                    best = rec
        return best

    def feed(self, rec: TraceRecord) -> None:
        track, rank = parse_source(rec.source)
        if track != "imr":
            return
        kind = rec.kind
        if kind == "imr_store":
            self._stored[self._key(rank, rec)] = rec
        elif kind == "imr_buddy_send":
            self._sent[self._key(rank, rec)] = rec
        elif kind == "imr_buddy_recv":
            if self._key(rank, rec) not in self._sent:
                chain = [r for r in [self._latest_sent(rank, rec["member"])]
                         if r is not None] + [rec]
                self.violate(
                    "stale-buddy",
                    f"rank {rank} fetched member {rec['member']} version "
                    f"{int(rec['version'])} from its buddy, which never "
                    "received that version",
                    chain,
                )
        elif kind == "imr_restore":
            key = self._key(rank, rec)
            tier = rec.fields.get("tier")
            if tier == "local" and key not in self._stored:
                self.violate(
                    "restore-unstored",
                    f"rank {rank} restored member {rec['member']} version "
                    f"{int(rec['version'])} locally but never stored it",
                    [rec],
                )
            elif tier == "buddy" and key not in self._sent:
                chain = [r for r in [self._latest_sent(rank, rec["member"])]
                         if r is not None] + [rec]
                self.violate(
                    "stale-buddy",
                    f"rank {rank} restored member {rec['member']} version "
                    f"{int(rec['version'])} from its buddy, which never "
                    "received that version",
                    chain,
                )


def standard_monitors() -> List[ProtocolMonitor]:
    """The full suite, one instance of each monitor class."""
    return [
        ULFMOrderMonitor(),
        RoleTransitionMonitor(),
        RepairGateMonitor(),
        VersionMonitor(),
        FlushMonitor(),
        BuddyMonitor(),
    ]
