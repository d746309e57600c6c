"""VeloC client API (per rank).

Mirrors the VeloC memory-registration interface: ``mem_protect`` regions,
``checkpoint`` versions, query restartable versions, ``recover``.  The
synchronous checkpoint path costs one local memory copy; persistence is
delegated to the node's :class:`~repro.veloc.server.VeloCServer`.

Fenix-integration hooks (the paper's Section V modifications):

- ``single`` (non-collective) mode: :meth:`restart_test` consults only
  local tiers and the caller reduces across ranks itself.  Kokkos
  Resilience's VeloC backend always runs this way, as does the
  hand-integrated Heatdis under Fenix (``fenix_veloc``);
- :meth:`set_comm` / :meth:`set_rank`: replace the communicator and cached
  rank id after a communicator repair or shrink.

``collective`` mode, where :meth:`restart_test` intersects versions over
the communicator itself, is stock VeloC, used by the hand-integrated
Heatdis without Fenix (``veloc``).  It breaks under Fenix repair: the
query runs over the communicator VeloC was initialized with.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.cluster import Cluster
from repro.sim.engine import Event
from repro.util.errors import ConfigError, ReproError
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY
from repro.veloc.config import VeloCConfig
from repro.veloc.server import VeloCService
from repro.veloc.snapshot import ChunkedSnapshot, payload_array, snapshot_view


class VeloCError(ReproError):
    """Checkpoint/restart failure (missing version, bad region, ...)."""


def newest_common_version(
    comm: CommHandle, local: Set[int]
) -> Generator[Event, Any, int]:
    """The newest version in every rank's ``local`` set, or -1: one
    allgather of the sorted local versions, then their intersection."""
    all_sets = yield from comm.allgather(sorted(local))
    common = set(all_sets[0]).intersection(*all_sets[1:])
    return max(common, default=-1)


class VeloCClient:
    """One rank's connection to the checkpoint system."""

    def __init__(
        self,
        ctx: Any,
        cluster: Cluster,
        service: VeloCService,
        config: VeloCConfig,
        comm: Optional[CommHandle] = None,
    ) -> None:
        if config.collective and comm is None:
            raise ConfigError("collective-mode VeloC requires a communicator")
        self.ctx = ctx
        self.cluster = cluster
        self.service = service
        self.config = config
        self.comm = comm
        #: the rank id used in checkpoint keys.  Under Fenix's in-place
        #: repair a replacement process adopts the failed rank's id and
        #: thereby finds its predecessor's checkpoints.
        self.veloc_rank = comm.rank if comm is not None else ctx.rank
        self._protected: Dict[int, View] = {}
        #: version -> its flush's done event, while that flush is pending
        self._flushes: Dict[int, Event] = {}
        # cached sum of modelled protected bytes; invalidated by the
        # registration calls, not recomputed per checkpoint
        self._protected_nbytes: Optional[float] = None
        # previous version's snapshot per region: the copy-on-write base
        self._snapshots: Dict[int, ChunkedSnapshot] = {}
        #: cumulative modelled data-path volume (harness-level reporting)
        self.stats: Dict[str, float] = {
            "checkpoints": 0.0,
            "checkpoint_bytes": 0.0,
            "dirty_bytes": 0.0,
            # == dirty_bytes; benchmarks/e2e/probes.py reads it until
            # ROADMAP item 9
            "novel_bytes": 0.0,
        }
        ctx.user.setdefault("veloc.clients", []).append(self)

    # -- integration hooks ----------------------------------------------------

    def set_comm(self, comm: CommHandle) -> None:
        """Replace the communicator (after repair); refreshes the rank id."""
        self.comm = comm
        self.veloc_rank = comm.rank

    def set_rank(self, rank: int) -> None:
        """Directly update the cached rank id (shrunk-continuation case)."""
        self.veloc_rank = rank

    # -- region registration -----------------------------------------------------

    def mem_protect(self, region_id: int, view: View) -> None:
        """Register a memory region for checkpointing."""
        if region_id in self._protected and self._protected[region_id] is not view:
            raise ConfigError(f"region id {region_id} already protects another view")
        if region_id not in self._protected:
            self._protected_nbytes = None
        self._protected[region_id] = view

    def protected_nbytes(self) -> float:
        if self._protected_nbytes is None:
            self._protected_nbytes = sum(
                v.modeled_nbytes for v in self._protected.values()
            )
        return self._protected_nbytes

    # -- keys -----------------------------------------------------------------------

    def _key(self, version: int) -> Tuple:
        return ("veloc", self.config.ckpt_name, int(version), self.veloc_rank)

    # -- checkpoint -------------------------------------------------------------------

    def _build_snapshot(self) -> Tuple[Dict[int, Any], float]:
        """Host-side snapshot of every protected region.

        Returns ``(snapshot, dirty_bytes)``: ``dirty_bytes`` is the
        modelled size of the chunks the views report dirty (all of it
        under the full-copy path), what both the synchronous memcpy and
        the background flush move.
        """
        if not self.config.incremental:
            snapshot = {
                rid: view.copy_data() for rid, view in self._protected.items()
            }
            return snapshot, self.protected_nbytes()
        snapshot: Dict[int, Any] = {}
        dirty_bytes = 0.0
        for rid, view in self._protected.items():
            snap, fresh = snapshot_view(view, prev=self._snapshots.get(rid))
            dirty_frac = len(fresh) / max(1, snap.n_chunks)
            dirty_bytes += view.modeled_nbytes * dirty_frac
            view.clear_dirty()
            snapshot[rid] = snap
            self._snapshots[rid] = snap
        return snapshot, dirty_bytes

    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        """Write version ``version`` of all protected regions.

        Synchronous cost: one memory copy of the modelled *dirty* bytes
        into node-local scratch (all bytes on the first version, after a
        restore, or with ``incremental=False``).  The PFS flush of the
        same bytes is queued on the node server and proceeds in the
        background.
        """
        if not self._protected:
            raise VeloCError("checkpoint with no protected regions")
        engine = self.ctx.engine
        tel = engine.telemetry
        t0 = engine.now
        total = self.protected_nbytes()
        # the host-side copy happens before the modelled span opens: it is
        # harness wall-clock, not simulated time, and must not sit between
        # the span start and the memcpy timeout where profile attribution
        # would count it against the checkpoint function twice
        snapshot, dirty_bytes = self._build_snapshot()
        with tel.span(f"veloc.rank{self.veloc_rank}", "veloc.checkpoint",
                      version=int(version), nbytes=total,
                      wrank=self.ctx.rank) as sp:
            if sp is not None:
                sp.fields["dirty_bytes"] = dirty_bytes
                sp.fields["dirty_fraction"] = dirty_bytes / total if total else 0.0
                sp.fields["incremental"] = self.config.incremental
            yield engine.timeout(self.ctx.node.memcpy_time(dirty_bytes))
            key = self._key(version)
            self.ctx.node.scratch[key] = (snapshot, total)
            self._gc_scratch(version)
            if self.config.flush_to_pfs:
                server = self.service.server_for(self.ctx.node)
                done = self._flushes[int(version)] = server.submit(
                    key, (snapshot, total), dirty_bytes, stored_nbytes=total
                )
                done.add_callback(partial(self._flushed, int(version)))
        self.stats["checkpoints"] += 1
        self.stats["checkpoint_bytes"] += total
        self.stats["dirty_bytes"] += dirty_bytes
        self.stats["novel_bytes"] += dirty_bytes
        dt = engine.now - t0
        self.cluster.trace.emit(
            engine.now,
            f"veloc.rank{self.veloc_rank}",
            "checkpoint",
            version=int(version),
            nbytes=total,
            dirty_bytes=dirty_bytes,
            seconds=dt,
        )
        self.ctx.account.charge(CHECKPOINT_FUNCTION, dt)
        if tel.enabled:
            rm = tel.rank_metrics(self.veloc_rank)
            rm.inc("veloc.checkpoint.count")
            rm.inc("veloc.checkpoint.bytes", total)
            rm.inc("veloc.checkpoint.dirty_bytes", dirty_bytes)
            rm.observe("veloc.checkpoint.latency", dt)
            rm.observe("veloc.checkpoint.nbytes", total)
            rm.observe("veloc.checkpoint.dirty_fraction",
                       dirty_bytes / total if total else 0.0)

    def _gc_scratch(self, latest_version: int) -> None:
        """Retain only the newest ``keep_versions`` scratch copies."""
        cutoff = int(latest_version) - self.config.keep_versions + 1
        stale = [
            key
            for key in self.ctx.node.scratch
            if isinstance(key, tuple)
            and len(key) == 4
            and key[0] == "veloc"
            and key[1] == self.config.ckpt_name
            and key[3] == self.veloc_rank
            and key[2] < cutoff
        ]
        for key in stale:
            del self.ctx.node.scratch[key]

    def _flushed(self, version: int, done: Event) -> None:
        """Forget a persisted version (unless a later checkpoint of the
        same version took its place)."""
        if self._flushes.get(version) is done:
            del self._flushes[version]

    def flush_pending(self) -> List[int]:
        """Versions whose PFS flush has not completed yet."""
        return sorted(self._flushes)

    def wait_flushes(self) -> Generator[Event, Any, None]:
        """Block until every queued flush has persisted."""
        pending = list(self._flushes.values())
        if pending:
            tel = self.ctx.engine.telemetry
            with tel.span(f"veloc.rank{self.veloc_rank}", "veloc.flush_wait",
                          pending=len(pending), wrank=self.ctx.rank):
                yield self.ctx.engine.all_of(pending)

    # -- version queries --------------------------------------------------------------

    def local_versions(self) -> Set[int]:
        """Versions restorable by this rank without help: scratch + PFS."""
        found: Set[int] = set()
        key_sources = [self.ctx.node.scratch.keys(), self.cluster.pfs.keys()]
        if self.cluster.burst_buffer is not None:
            key_sources.append(self.cluster.burst_buffer.keys())
        for keys in key_sources:
            for key in keys:
                if (
                    isinstance(key, tuple)
                    and len(key) == 4
                    and key[0] == "veloc"
                    and key[1] == self.config.ckpt_name
                    and key[3] == self.veloc_rank
                ):
                    found.add(int(key[2]))
        return found

    def restart_test(self) -> "int | Generator[Event, Any, int]":
        """Latest restorable version, or -1.

        In ``single`` mode this is a plain local call (the caller reduces).
        In ``collective`` mode it is a generator performing the global
        intersection over the communicator -- the stock VeloC behaviour
        that breaks under communicator repair.
        """
        local = self.local_versions()
        if not self.config.collective:
            return max(local) if local else -1
        return newest_common_version(self.comm, local)

    # -- recovery -----------------------------------------------------------------------

    def recover(self, version: int) -> Generator[Event, Any, None]:
        """Restore all protected regions from ``version``.

        Survivors restore from node-local scratch (a memory copy);
        replacement ranks pull from the PFS (network + I/O-server cost),
        reproducing the paper's asymmetric recovery costs.
        """
        engine = self.ctx.engine
        tel = engine.telemetry
        t0 = engine.now
        key = self._key(version)
        bb = self.cluster.burst_buffer
        with tel.span(f"veloc.rank{self.veloc_rank}", "veloc.recover",
                      version=int(version), wrank=self.ctx.rank) as sp:
            if key in self.ctx.node.scratch:
                snapshot, total = self.ctx.node.scratch[key]
                yield engine.timeout(self.ctx.node.memcpy_time(total))
                source = "scratch"
            elif bb is not None and bb.exists(key):
                snapshot, total = yield from bb.read(key, self.ctx.node)
                self.ctx.node.scratch[key] = (snapshot, total)
                source = "bb"
            elif self.cluster.pfs.exists(key):
                snapshot, total = yield from self.cluster.pfs.read(
                    key, self.ctx.node
                )
                # refill scratch so subsequent failures restore locally
                self.ctx.node.scratch[key] = (snapshot, total)
                source = "pfs"
            else:
                raise VeloCError(
                    f"rank {self.veloc_rank}: no checkpoint version {version}"
                )
            if sp is not None:
                sp.fields["tier"] = source
            for rid, stored in snapshot.items():
                view = self._protected.get(rid)
                if view is None:
                    raise VeloCError(
                        f"rank {self.veloc_rank}: region {rid} in checkpoint "
                        "but not protected"
                    )
                # either format restores: plain ndarray (full-copy path)
                # or ChunkedSnapshot (incremental path).  load_data marks
                # the view fully dirty, so the next checkpoint after a
                # restore is a full copy by construction.
                view.load_data(payload_array(stored))
        self.cluster.trace.emit(
            engine.now,
            f"veloc.rank{self.veloc_rank}",
            "recover",
            version=int(version),
            tier=source,
        )
        dt = engine.now - t0
        self.ctx.account.charge(DATA_RECOVERY, dt)
        if tel.enabled:
            rm = tel.rank_metrics(self.veloc_rank)
            rm.inc(f"veloc.recover.{source}")
            rm.observe("veloc.recover.latency", dt)
