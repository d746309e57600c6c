"""Per-rank communicator facade (the object application code talks to).

A :class:`CommHandle` binds a shared :class:`~repro.mpi.comm.Communicator`
to one rank's :class:`~repro.mpi.world.RankContext`.  Its API is the
subset of mpi4py's lowercase object interface the stack calls: halos
(``send``/``recv``/``sendrecv``), collectives (``allreduce``/
``allgather``/``bcast``) and ULFM's ``revoke``/``shrink``/``agree``.  Every blocking
call is a generator to be driven with ``yield from``, and every call
charges its wall time to the rank's
:class:`~repro.util.timing.TimeAccount` under kind ``"mpi"`` -- which is
exactly the paper's "App MPI" measurement.  Receives name their source
and tag; there are no wildcards.

Collectives are implemented *on top of the point-to-point layer* with
binomial trees (bcast, and the reduce and gather under allreduce and
allgather), so their cost scales as ``O(log P)`` network hops and they
contend for NICs like any other traffic -- both properties the paper's
scaling discussion relies on.

Subclasses may override :meth:`_on_mpi_error` to implement an MPI error
handler; :class:`repro.fenix.FenixCommHandle` uses this hook to revoke the
communicator and long-jump into recovery.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.mpi.comm import Communicator
from repro.mpi.errors import MPIError
from repro.mpi.ops import ReduceOp, SUM
from repro.sim.engine import Event
from repro.util.errors import SimulationError

# collective op ids folded into reserved tags
_OP_BCAST = 1
_OP_REDUCE = 2
_OP_GATHER = 3


class CommHandle:
    """One rank's view of a communicator."""

    def __init__(self, comm: Communicator, ctx: "Any") -> None:
        self.comm = comm
        self.ctx = ctx
        rank = comm.comm_rank(ctx.rank)
        if rank is None:
            raise SimulationError(
                f"world rank {ctx.rank} is not a member of {comm.name}"
            )
        self._rank = rank

    # -- identity ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def engine(self):
        return self.comm.world.engine

    def rebind(self, comm: Communicator) -> "CommHandle":
        """A handle of the same class/context on another communicator
        (used after shrink/repair)."""
        return type(self)(comm, self.ctx)

    # -- error-handler hook ---------------------------------------------------

    def _on_mpi_error(self, exc: MPIError) -> None:
        """Called when an operation fails with an MPI error, before the
        error propagates.  The default (MPI_ERRORS_ARE_FATAL flavour) lets
        the exception raise; Fenix overrides this to enter recovery."""

    def _timed(self, gen: Generator) -> Generator[Event, Any, Any]:
        engine = self.engine
        t0 = engine.now
        tel = engine.telemetry
        if tel.enabled:
            # span name mirrors the public op ("mpi.send", "mpi.agree", ...)
            # so the profiler can tell App-MPI waits from ULFM agreement
            op = getattr(gen, "__name__", "op").lstrip("_")
            with tel.span(f"rank{self.ctx.rank}", f"mpi.{op}"):
                try:
                    result = yield from gen
                    return result
                except MPIError as exc:
                    self._on_mpi_error(exc)
                    raise
                finally:
                    self.ctx.account.charge("mpi", engine.now - t0)
        else:
            try:
                result = yield from gen
                return result
            except MPIError as exc:
                self._on_mpi_error(exc)
                raise
            finally:
                self.ctx.account.charge("mpi", engine.now - t0)

    # -- point-to-point ---------------------------------------------------------

    def send(
        self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, None]:
        """Blocking send: completes when the message is delivered."""
        return self._timed(self._send(payload, dest, tag, nbytes))

    def _send(self, payload, dest, tag, nbytes):
        yield self.comm.send_op(self._rank, dest, tag, payload, nbytes)

    def recv(self, source: int, tag: int = 0) -> Generator[Event, Any, Any]:
        """Blocking receive: returns the payload."""
        return self._timed(self._recv(source, tag))

    def _recv(self, source, tag):
        payload = yield self.comm.recv_op(self._rank, source, tag)
        return payload

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: Optional[int] = None,
        nbytes: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Combined send+receive (deadlock-free halo exchange primitive)."""
        return self._timed(
            self._sendrecv(payload, dest, source, sendtag, recvtag, nbytes)
        )

    def _sendrecv(self, payload, dest, source, sendtag, recvtag, nbytes):
        rtag = recvtag if recvtag is not None else sendtag
        recv_ev = self.comm.recv_op(self._rank, source, rtag)
        send_ev = self.comm.send_op(self._rank, dest, sendtag, payload, nbytes)
        values = yield self.engine.all_of([recv_ev, send_ev])
        return values[0]

    # -- collectives -------------------------------------------------------------

    def bcast(
        self,
        value: Any = None,
        root: int = 0,
        nbytes: Optional[float] = None,
        algorithm: str = "binomial",
    ) -> Generator[Event, Any, Any]:
        """Broadcast; every rank returns the root's value.

        ``algorithm`` selects ``"binomial"`` (default, O(log P) rounds) or
        ``"flat"`` (root sends to every rank directly, O(P) on the root's
        NIC) -- kept for the collectives ablation study.
        """
        if algorithm == "flat":
            return self._timed(self._bcast_flat(value, root, nbytes))
        return self._timed(self._bcast(value, root, nbytes))

    def _bcast_flat(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_BCAST)
        if self._rank == root:
            sends = [
                comm.send_op(self._rank, dst, tag, value, nbytes)
                for dst in range(comm.size)
                if dst != root
            ]
            if sends:
                yield self.engine.all_of(sends)
            return value
        value = yield comm.recv_op(self._rank, root, tag)
        return value

    def _bcast(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_BCAST)
        size = comm.size
        rel = (self._rank - root) % size
        mask = 1
        if rel != 0:
            while mask < size:
                if rel & mask:
                    src = (rel - mask + root) % size
                    value = yield comm.recv_op(self._rank, src, tag)
                    break
                mask <<= 1
        else:
            while mask < size:
                mask <<= 1
        mask >>= 1
        sends = []
        while mask > 0:
            if rel + mask < size:
                dst = (rel + mask + root) % size
                sends.append(comm.send_op(self._rank, dst, tag, value, nbytes))
            mask >>= 1
        if sends:
            yield self.engine.all_of(sends)
        return value

    def _reduce(self, value, op, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_REDUCE)
        size = comm.size
        rel = (self._rank - root) % size
        acc = value
        mask = 1
        while mask < size:
            if rel & mask:
                parent = (rel - mask + root) % size
                yield comm.send_op(self._rank, parent, tag, acc, nbytes)
                return None
            child_rel = rel | mask
            if child_rel < size:
                src = (child_rel + root) % size
                child_val = yield comm.recv_op(self._rank, src, tag)
                acc = op(acc, child_val)
            mask <<= 1
        return acc

    def allreduce(
        self, value: Any, op: ReduceOp = SUM, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Reduce-to-0 + broadcast; every rank returns the reduced value."""
        return self._timed(self._allreduce(value, op, nbytes))

    def _allreduce(self, value, op, nbytes):
        reduced = yield from self._reduce(value, op, 0, nbytes)
        result = yield from self._bcast(reduced, 0, nbytes)
        return result

    def _gather(self, value, root, nbytes):
        comm = self.comm
        comm.check_collective()
        tag = comm.next_collective_tag(self._rank, _OP_GATHER)
        size = comm.size
        if self._rank == root:
            sources = [src for src in range(size) if src != root]
            events = [comm.recv_op(self._rank, src, tag) for src in sources]
            values = yield self.engine.all_of(events)
            result: List[Any] = [None] * size
            result[root] = value
            for src, payload in zip(sources, values):
                result[src] = payload
            return result
        yield comm.send_op(self._rank, root, tag, value, nbytes)
        return None

    def allgather(
        self, value: Any, nbytes: Optional[float] = None
    ) -> Generator[Event, Any, Any]:
        """Gather to 0 + broadcast; every rank returns the full list."""
        return self._timed(self._allgather(value, nbytes))

    def _allgather(self, value, nbytes):
        gathered = yield from self._gather(value, 0, nbytes)
        total = None if nbytes is None else nbytes * self.comm.size
        result = yield from self._bcast(gathered, 0, total)
        return result

    # -- ULFM extension ------------------------------------------------------------

    def revoke(self) -> None:
        """MPI_Comm_revoke (local call, global effect)."""
        self.comm.revoke()

    def agree(self, flag: bool = True) -> Generator[Event, Any, Any]:
        """MPI_Comm_agree over survivors; returns (and_flag, failed_set)."""
        return self._timed(self._agree(flag))

    def _agree(self, flag):
        result = yield self.comm.agree_gate(self._rank, flag)
        return result

    def shrink(self) -> Generator[Event, Any, "CommHandle"]:
        """MPI_Comm_shrink: returns a handle on the survivor communicator."""
        return self._timed(self._shrink())

    def _shrink(self):
        new_comm = yield self.comm.shrink_gate(self._rank)
        return self.rebind(new_comm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommHandle rank={self._rank}/{self.size} on {self.comm.name}>"
