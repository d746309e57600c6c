"""Fenix In-Memory Redundancy (IMR) data store, buddy-rank policy.

The paper (Section V-A): "ranks form pairs and store each other's
checkpointed data. Local copies of checkpoints are also kept, increasing
memory use in exchange for quick, local recovery on surviving ranks."

Cost structure -- the crux of the Figure 5 IMR-vs-VeloC comparison:

- ``store`` is *synchronous*: the caller pays a local memory copy plus a
  network transfer to its buddy inside the checkpoint function, so the
  checkpoint-function cost scales directly with the checkpoint size;
- traffic is pairwise over ordinary NICs, so aggregate bandwidth grows
  with every rank added ("each rank adds both a producer and a consumer"),
  unlike the fixed PFS servers VeloC flushes through;
- restore is a local memcpy for survivors and a single buddy fetch for a
  recovered rank.

Data lives in per-*process* memory (keyed by world rank): when a rank dies
its copies die with it, and a replacement spare starts empty -- which is
why only the buddy copy saves the day, and why losing both members of a
pair between checkpoints loses the data (single redundancy, as in Fenix).

A version is *restorable* once committed (``Fenix_Data_commit``): an
owner that dies between its first and its last member leaves copies but
no mark, so nobody takes the torn version for a checkpoint.  The mark
rides the last member's buddy transfer: no message, no simulated time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

import numpy as np

from repro.fenix.errors import FenixError
from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY


#: in a key's member position: "every member of this version is stored"
_COMMITTED = "committed"


def buddy_rank(rank: int, size: int) -> int:
    """The buddy-pair partner: XOR pairing, with the odd rank out (when
    ``size`` is odd) paired asymmetrically with rank 0."""
    if size <= 1:
        return rank
    partner = rank ^ 1
    if partner >= size:  # last rank of an odd-size communicator
        return 0
    return partner


class IMRStore:
    """World-level IMR memory, shared by all ranks of one Fenix system.

    Keys are communicator-local ranks (stable under Fenix's in-place
    repair), storage slots are world ranks (physical memory that dies with
    its process).
    """

    def __init__(self, world: Any, keep_versions: int = 2) -> None:
        self.world = world
        self.keep_versions = keep_versions
        #: world_rank -> {(member_id, version, owner_comm_rank): (data, nbytes)}
        self._memory: Dict[int, Dict[Tuple, Tuple[Any, float]]] = {}
        world.add_death_listener(self._on_death)

    def _on_death(self, world_rank: int) -> None:
        """Process death loses its in-memory copies."""
        self._memory.pop(world_rank, None)

    def _slot(self, world_rank: int) -> Dict[Tuple, Tuple[Any, float]]:
        return self._memory.setdefault(world_rank, {})

    def _holders(self, ctx: Any, comm: CommHandle) -> List[int]:
        """The processes whose memory holds this rank's copies: its own
        and its buddy's, if that one is alive -- a corpse keeps nothing."""
        holders = [ctx.rank]
        partner = buddy_rank(comm.rank, comm.size)
        if partner != comm.rank:
            buddy_world = comm.comm.world_rank(partner)
            if self.world.is_alive(buddy_world):
                holders.append(buddy_world)
        return holders

    # -- store ------------------------------------------------------------

    def store(
        self,
        ctx: Any,
        comm: CommHandle,
        member_id: int,
        view: View,
        version: int,
    ) -> Generator[Event, Any, None]:
        """Fenix_Data_member_store: snapshot ``view`` locally and at the
        buddy (synchronous; cost scales with the view's modelled size)."""
        engine = ctx.engine
        tel = engine.telemetry
        t0 = engine.now
        data = view.copy_data()
        nbytes = view.modeled_nbytes
        key = (member_id, int(version), comm.rank)
        with tel.span(f"imr.rank{comm.rank}", "imr.store",
                      member=member_id, version=int(version), nbytes=nbytes,
                      wrank=ctx.rank):
            # local copy (memory-copy cost)
            yield engine.timeout(ctx.node.memcpy_time(nbytes))
            self._slot(ctx.rank)[key] = (data, nbytes)
            # buddy copy (network transfer, paid synchronously by the caller)
            partner = buddy_rank(comm.rank, comm.size)
            if partner != comm.rank:
                buddy_world = comm.comm.world_rank(partner)
                buddy_node = self.world.node_of_rank(buddy_world)
                yield from self.world.network.transfer(ctx.node, buddy_node, nbytes)
                # the sender cannot know its buddy died under the transfer:
                # it pays and records the send either way
                if buddy_world in self._holders(ctx, comm):
                    self._slot(buddy_world)[key] = (np.copy(data), nbytes)
                self.world.trace.emit(
                    engine.now, f"imr.rank{comm.rank}", "imr_buddy_send",
                    member=member_id, version=int(version), nbytes=nbytes,
                    buddy=partner,
                )
        self.world.trace.emit(
            engine.now, f"imr.rank{comm.rank}", "imr_store",
            member=member_id, version=int(version), nbytes=nbytes,
        )
        dt = engine.now - t0
        ctx.account.charge(CHECKPOINT_FUNCTION, dt)
        if tel.enabled:
            rm = tel.rank_metrics(ctx.rank)
            rm.inc("imr.store.bytes", nbytes)
            rm.observe("imr.store.latency", dt)

    # -- commit / query ------------------------------------------------------

    def commit(self, ctx: Any, comm: CommHandle, version: int) -> None:
        """Fenix_Data_commit: every member of ``version`` is stored, so
        mark it restorable wherever its copies are, and only then collect
        this rank's entries older than ``keep_versions`` allows (the
        previous version stays whole until the next one is).  No record:
        ``kr_region_commit`` is emitted at this instant."""
        version, owner = int(version), comm.rank
        cutoff = version - self.keep_versions + 1
        for holder in self._holders(ctx, comm):
            slot = self._slot(holder)
            mine = [k for k in slot if k[2] == owner]
            # a replacement buddy that never received the copies gets no mark
            if any(k[1] == version for k in mine):
                slot[(_COMMITTED, version, owner)] = (None, 0.0)
            for k in mine:
                if k[1] < cutoff:
                    del slot[k]

    def committed_versions(self, ctx: Any, comm: CommHandle) -> Set[int]:
        """Versions this rank can restore: those marked complete in its own
        memory or its live buddy's."""
        return {
            version
            for holder in self._holders(ctx, comm)
            for (member, version, owner) in self._memory.get(holder, ())
            if member == _COMMITTED and owner == comm.rank
        }

    # -- restore --------------------------------------------------------------

    def restore(
        self,
        ctx: Any,
        comm: CommHandle,
        member_id: int,
        view: View,
        version: int,
    ) -> Generator[Event, Any, str]:
        """Fenix_Data_member_restore: local memcpy if this process holds a
        copy, otherwise fetch from the buddy.  Returns the tier used."""
        engine = ctx.engine
        tel = engine.telemetry
        t0 = engine.now
        key = (member_id, int(version), comm.rank)
        with tel.span(f"imr.rank{comm.rank}", "imr.restore",
                      member=member_id, version=int(version), wrank=ctx.rank):
            source = next((h for h in self._holders(ctx, comm)
                           if key in self._memory.get(h, ())), None)
            if source is None:
                raise FenixError(
                    f"IMR: no copy of member {member_id} v{version} "
                    f"for rank {comm.rank}"
                )
            data, nbytes = self._memory[source][key]
            if source == ctx.rank:
                yield engine.timeout(ctx.node.memcpy_time(nbytes))
                tier = "local"
            else:
                buddy_node = self.world.node_of_rank(source)
                yield from self.world.network.transfer(buddy_node, ctx.node, nbytes)
                # re-establish the local copy for future failures
                self._slot(ctx.rank)[key] = (np.copy(data), nbytes)
                tier = "buddy"
                self.world.trace.emit(
                    engine.now, f"imr.rank{comm.rank}", "imr_buddy_recv",
                    member=member_id, version=int(version), nbytes=nbytes,
                    buddy=buddy_rank(comm.rank, comm.size),
                )
            view.load_data(data)
        self.world.trace.emit(
            engine.now, f"imr.rank{comm.rank}", "imr_restore",
            member=member_id, version=int(version), tier=tier,
        )
        dt = engine.now - t0
        ctx.account.charge(DATA_RECOVERY, dt)
        if tel.enabled:
            rm = tel.rank_metrics(ctx.rank)
            rm.inc(f"imr.restore.{tier}")
            rm.observe("imr.restore.latency", dt)
        return tier
