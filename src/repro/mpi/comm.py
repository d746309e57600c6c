"""Communicator: point-to-point matching, ULFM state, collective gates.

A :class:`Communicator` is a *shared* object describing a group of world
ranks; per-rank operations are invoked through :class:`repro.mpi.handle.CommHandle`
facades.  Addressing here is always in communicator-local ranks.

ULFM semantics implemented (the subset the paper's Fenix layer relies on):

- operations that involve a failed process raise :class:`ProcFailedError`
  at the call site; operations already pending when the failure occurs are
  interrupted with the same error;
- :meth:`revoke` poisons the communicator for everyone: pending and future
  operations raise :class:`RevokedError` -- this is how Fenix turns a
  locally detected failure into a global, single-exit-point event;
- :meth:`agree_gate` and :meth:`shrink_gate` implement MPI_Comm_agree and
  MPI_Comm_shrink as fault-tolerant collectives over the *surviving*
  members: they complete even while the communicator is revoked and
  re-evaluate their completion condition whenever another member dies.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING,
)

from repro.mpi.errors import ProcFailedError, RevokedError
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status, freeze_payload, payload_nbytes
from repro.sim.engine import Event
from repro.util.errors import ReproError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World


def try_succeed(event: Event, value: Any = None) -> None:
    """Trigger ``event`` successfully unless it already triggered."""
    if not event.triggered:
        event.succeed(value)


def try_fail(event: Event, exc: BaseException) -> None:
    """Trigger ``event`` with ``exc`` unless it already triggered."""
    if not event.triggered:
        event.fail(exc)


@dataclass
class PendingSend:
    """A sent message not yet matched by a receive (the unexpected queue)."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: float
    done: Event


@dataclass
class PostedRecv:
    """A receive posted before its matching send arrived."""

    src: int  # may be ANY_SOURCE
    dst: int
    tag: int  # may be ANY_TAG
    event: Event  # succeeds with (payload, Status)


class CollectiveGate:
    """Failure-aware rendezvous: the one class MPI_Comm_agree,
    MPI_Comm_shrink, Fenix's repair gate and Fenix_Finalize are instances
    of.  Two things tell them apart:

    - ``expected(owner)`` names the ranks whose arrival a generation
      needs.  It is asked again on every arrival and on every rank death
      (the owner calls :meth:`recheck`), so a gate over *survivors* cannot
      hang on a corpse -- the property MPI_Comm_agree is specified to have;
    - ``delay(owner)`` is the simulated time from the last arrival to
      delivery.

    ``finalize(owner, contributions)`` turns the contribution map into the
    shared result.  A generation *fails*, on every waiter alike, with
    whatever library error either callback raises: a gate over *all*
    members raises what any collective raises once one is lost, Fenix's
    repair with no spare left its spare-exhaustion error.

    The owner holds its gates, so a gate names its owner weakly and the
    three callbacks are plain functions of it: bound methods would make
    each owner a reference cycle.
    """

    def __init__(
        self,
        owner: Any,
        name: str,
        finalize: Callable[[Any, Dict[int, Any]], Any],
        expected: Callable[[Any], Iterable[int]],
        delay: Callable[[Any], float] = lambda _owner: 0.0,
    ) -> None:
        self._owner = weakref.ref(owner)
        self._engine = owner.world.engine
        self._name = name
        self._finalize = finalize
        self._expected = expected
        self._delay = delay
        self._contributions: Dict[int, Any] = {}
        self._waiters: Dict[int, Event] = {}

    def arrive(self, rank: int, value: Any = None) -> Event:
        """Contribute ``value`` as ``rank``; returns the completion event
        (succeeds with the finalized result)."""
        if rank in self._contributions:
            raise SimulationError(
                f"gate {self._name}: rank {rank} arrived twice in one generation"
            )
        ev = self._engine.event(name=f"{self._name}:{rank}")
        self._contributions[rank] = value
        self._waiters[rank] = ev
        self.recheck()
        return ev

    def recheck(self) -> None:
        """Re-evaluate completion (called on arrival and on rank death)."""
        if not self._waiters:
            return
        owner = self._owner()
        try:
            if not set(self._expected(owner)) <= self._contributions.keys():
                return
            outcome = self._finalize(owner, dict(self._contributions))
            deliver = Event.succeed
        except ReproError as exc:
            outcome, deliver = exc, Event.fail
        waiters, self._waiters = self._waiters, {}
        self._contributions = {}
        delay = self._delay(owner)
        for ev in waiters.values():
            deliver(ev, outcome, delay=delay)


class Communicator:
    """A group of world ranks with its own matching context.

    Sends at or below :attr:`eager_limit` bytes follow the *eager*
    protocol: the send completes after the sender-side injection cost even
    if no receive is posted yet (the payload is buffered in the matching
    queue), mirroring real MPI behaviour and avoiding false deadlocks in
    send-before-recv exchange patterns.  Larger sends rendezvous: they
    complete only at delivery.
    """

    _ids = 0

    #: eager-protocol threshold, bytes (typical MPI default magnitude)
    eager_limit: float = 64.0 * 1024.0

    def __init__(self, world: "World", members: List[int], name: str = "") -> None:
        seen: Set[int] = set()
        for w in members:
            if w in seen:
                raise SimulationError(f"duplicate world rank {w} in communicator")
            seen.add(w)
        Communicator._ids += 1
        self.world = world
        self.name = name or f"comm{Communicator._ids}"
        self._world_of: List[int] = list(members)
        self._rank_of: Dict[int, int] = {w: i for i, w in enumerate(members)}
        self.revoked = False
        self._posted: List[PostedRecv] = []
        self._unexpected: List[PendingSend] = []
        self._coll_seq: Dict[int, int] = {}
        self._acked: Set[int] = set()
        # both complete on the *surviving* members, one log-depth
        # agreement round after the last of them arrives
        self._agree_gate = CollectiveGate(
            self, f"{self.name}.agree", Communicator._finalize_agree,
            Communicator.alive_members, Communicator.agreement_latency)
        self._shrink_gate = CollectiveGate(
            self, f"{self.name}.shrink", Communicator._finalize_shrink,
            Communicator.alive_members, Communicator.agreement_latency)
        world.register_comm(self)
        # membership record: protocol monitors resolve comm-local ranks
        # (checkpoint keys, IMR slots) back to world ranks through this
        world.trace.emit(
            world.engine.now, self.name, "comm_create",
            members=list(members),
        )

    # -- group queries ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._world_of)

    def world_rank(self, comm_rank: int) -> int:
        return self._world_of[comm_rank]

    def comm_rank(self, world_rank: int) -> Optional[int]:
        return self._rank_of.get(world_rank)

    @property
    def members(self) -> List[int]:
        """World ranks, indexed by communicator rank."""
        return list(self._world_of)

    def is_alive(self, comm_rank: int) -> bool:
        return self.world.is_alive(self._world_of[comm_rank])

    def alive_members(self) -> List[int]:
        return [i for i in range(self.size) if self.is_alive(i)]

    def failed_members(self) -> List[int]:
        return [i for i in range(self.size) if not self.is_alive(i)]

    def agreement_latency(self) -> float:
        """Modelled latency of one agreement round: 2 * ceil(log2 P) hops."""
        hops = max(1, (self.size - 1).bit_length())
        lat = self.world.cluster.spec.node.nic_latency
        return 2.0 * hops * lat

    # -- collective sequencing -------------------------------------------

    def next_collective_tag(self, comm_rank: int, op_id: int) -> int:
        """Per-rank collective sequence number folded into a reserved
        negative tag.  MPI requires identical collective call order on all
        ranks, so matching ranks compute matching tags."""
        seq = self._coll_seq.get(comm_rank, 0)
        self._coll_seq[comm_rank] = seq + 1
        return -(1000 + seq * 32 + op_id)

    # -- usability checks --------------------------------------------------

    def check_usable(self, peer: Optional[int] = None) -> None:
        """Raise if the communicator is revoked or ``peer`` is dead."""
        if self.revoked:
            raise RevokedError(self.name)
        if peer is not None and peer not in (ANY_SOURCE,):
            if not (0 <= peer < self.size):
                raise SimulationError(
                    f"{self.name}: rank {peer} out of range [0,{self.size})"
                )
            if not self.is_alive(peer):
                raise ProcFailedError({peer})

    def check_collective(self) -> None:
        """Raise if any member is dead (ULFM collectives error on failure)."""
        if self.revoked:
            raise RevokedError(self.name)
        failed = self.failed_members()
        if failed:
            raise ProcFailedError(set(failed))

    # -- point-to-point -----------------------------------------------------

    def send_op(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Any,
        nbytes: Optional[float] = None,
    ) -> Event:
        """Post a send; returns the completion event (succeeds at delivery)."""
        self.check_usable(peer=dst)
        size = float(nbytes) if nbytes is not None else payload_nbytes(payload)
        entry = PendingSend(
            src=src,
            dst=dst,
            tag=tag,
            payload=freeze_payload(payload),
            nbytes=size,
            done=Event(self.world.engine, ("%s:send:%s->%s", self.name, src, dst)),
        )
        match = self._find_posted(entry)
        if match is not None:
            self._posted.remove(match)
            self._deliver(entry, match)
        else:
            self._unexpected.append(entry)
            if size <= self.eager_limit:
                # Eager: sender completes after local injection; delivery
                # happens when the receive is eventually posted.
                src_node = self.world.node_of_rank(self._world_of[src])
                entry.done.succeed(None, delay=src_node.tx.transfer_time(size))
        return entry.done

    def recv_op(self, dst: int, src: int, tag: int) -> Event:
        """Post a receive; event succeeds with ``(payload, Status)``."""
        # Check the unexpected queue first: a message sent before its
        # sender died is still deliverable (the data already left).
        posted = PostedRecv(
            src=src,
            dst=dst,
            tag=tag,
            event=Event(self.world.engine, ("%s:recv:%s<-%s", self.name, dst, src)),
        )
        pending = self._find_unexpected(posted)
        if pending is not None:
            self._unexpected.remove(pending)
            self._deliver(pending, posted)
            return posted.event
        if self.revoked:
            raise RevokedError(self.name)
        if src != ANY_SOURCE:
            self.check_usable(peer=src)
        self._posted.append(posted)
        return posted.event

    def _find_posted(self, send: PendingSend) -> Optional[PostedRecv]:
        for recv in self._posted:
            if recv.dst != send.dst:
                continue
            if recv.src not in (ANY_SOURCE, send.src):
                continue
            if recv.tag not in (ANY_TAG, send.tag):
                continue
            return recv
        return None

    def probe_op(
        self, dst: int, src: int, tag: int
    ) -> Optional[PendingSend]:
        """Nonblocking probe: the first buffered message matching
        (src, tag) addressed to ``dst``, without removing it.

        Wildcard-tag probes skip reserved (negative) tags, so in-flight
        collective traffic stays invisible -- real MPI separates these by
        communicator context id.
        """
        if self.revoked:
            raise RevokedError(self.name)
        for send in self._unexpected:
            if send.dst != dst:
                continue
            if src not in (ANY_SOURCE, send.src):
                continue
            if tag == ANY_TAG:
                if send.tag < 0:
                    continue  # reserved collective tag
            elif tag != send.tag:
                continue
            return send
        return None

    def _find_unexpected(self, recv: PostedRecv) -> Optional[PendingSend]:
        for send in self._unexpected:
            if send.dst != recv.dst:
                continue
            if recv.src not in (ANY_SOURCE, send.src):
                continue
            if recv.tag not in (ANY_TAG, send.tag):
                continue
            return send
        return None

    def _deliver(self, send: PendingSend, recv: PostedRecv) -> None:
        """Start the transfer completing both sides, one hop from now.

        A chain of engine callbacks, not a process: a message costs the
        engine its two completion events and nothing else.
        """
        self.world.engine.call_soon(self._transfer, (send, recv))

    def _transfer(self, match: Tuple[PendingSend, PostedRecv]) -> None:
        send = match[0]
        world = self.world
        world.network.transfer_cb(
            world.node_of_rank(self._world_of[send.src]),
            world.node_of_rank(self._world_of[send.dst]),
            send.nbytes, self._delivered, match,
        )

    def _delivered(self, match: Tuple[PendingSend, PostedRecv]) -> None:
        send, recv = match
        status = Status(source=send.src, tag=send.tag, nbytes=send.nbytes)
        try_succeed(recv.event, (send.payload, status))
        try_succeed(send.done, None)

    # -- ULFM surface --------------------------------------------------------

    def revoke(self) -> None:
        """MPI_Comm_revoke: poison the communicator for all members.

        Pending point-to-point operations fail with :class:`RevokedError`;
        future operations raise immediately.  Idempotent.  (Propagation is
        modelled as immediate; the real ULFM revoke is asynchronous but
        reliably delivered, which is indistinguishable at our granularity.)
        """
        if self.revoked:
            return
        self.revoked = True
        exc_name = self.name
        #: fan-out = operations poisoned by this revoke (the cost of
        #: turning one local detection into a global failure event)
        fanout = len(self._posted) + len(self._unexpected)
        for recv in self._posted:
            try_fail(recv.event, RevokedError(exc_name))
        self._posted.clear()
        for send in self._unexpected:
            try_fail(send.done, RevokedError(exc_name))
        self._unexpected.clear()
        self.world.trace.emit(
            self.world.engine.now, self.name, "revoke", size=self.size
        )
        tel = self.world.engine.telemetry
        if tel.enabled:
            tel.instant("mpi", "revoke", comm=self.name, size=self.size,
                        fanout=fanout)
            tel.inc("mpi.revokes")
            tel.observe("mpi.revoke.fanout", fanout)

    def ack_failed(self) -> Set[int]:
        """MPI_Comm_failure_ack analogue: acknowledge current failures,
        returning the set of comm-local failed ranks acknowledged so far."""
        self._acked.update(self.failed_members())
        return set(self._acked)

    def get_failed(self) -> List[int]:
        """Comm-local ranks currently known to have failed."""
        return self.failed_members()

    def agree_gate(self, comm_rank: int, flag: bool) -> Event:
        """MPI_Comm_agree: logical AND over surviving members' flags.

        Returns an event succeeding with ``(and_of_flags, failed_set)``.
        Works on a revoked communicator (that is its raison d'etre).
        """
        return self._agree_gate.arrive(comm_rank, bool(flag))

    def _finalize_agree(self, contributions: Dict[int, Any]) -> Any:
        flag = all(bool(v) for v in contributions.values())
        failed = self.failed_members()
        self.world.trace.emit(
            self.world.engine.now, self.name, "agree",
            flag=flag, revoked=self.revoked, failed=sorted(failed),
            contributors=sorted(contributions),
        )
        return (flag, frozenset(failed))

    def shrink_gate(self, comm_rank: int) -> Event:
        """MPI_Comm_shrink: collective over survivors; event succeeds with a
        *new* communicator containing only the surviving members, in their
        original relative order."""
        return self._shrink_gate.arrive(comm_rank, None)

    def _finalize_shrink(self, contributions: Dict[int, Any]) -> "Communicator":
        survivors = [self._world_of[i] for i in sorted(contributions.keys())
                     if self.is_alive(i)]
        self.world.trace.emit(
            self.world.engine.now, self.name, "shrink",
            revoked=self.revoked, survivors=list(survivors),
            failed=sorted(self.failed_members()),
        )
        return Communicator(
            self.world, survivors, name=f"{self.name}.shrunk"
        )

    # -- failure notification ------------------------------------------------

    def on_rank_death(self, world_rank: int) -> None:
        """World callback: fail pending ops involving the dead rank and
        re-check any gates waiting on it."""
        comm_rank = self._rank_of.get(world_rank)
        if comm_rank is None:
            return
        exc_ranks = {comm_rank}
        for recv in list(self._posted):
            if recv.src == comm_rank:
                self._posted.remove(recv)
                try_fail(recv.event, ProcFailedError(exc_ranks, "sender died"))
        for send in list(self._unexpected):
            if send.dst == comm_rank:
                self._unexpected.remove(send)
                try_fail(send.done, ProcFailedError(exc_ranks, "receiver died"))
        self._agree_gate.recheck()
        self._shrink_gate.recheck()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "revoked" if self.revoked else "ok"
        return f"<Communicator {self.name} size={self.size} {state}>"
