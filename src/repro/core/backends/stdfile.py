"""StdFile backend: synchronous writes straight to the parallel filesystem.

The reference backend (Kokkos Resilience ships an equivalent): no scratch
tier, no asynchrony -- the checkpoint function blocks for the whole PFS
write.  Useful as the ablation baseline showing what VeloC's asynchronous
server buys.
"""

from __future__ import annotations

from typing import Any, Generator, List, Set, Tuple

from repro.core.backends.base import Backend
from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.cluster import Cluster
from repro.sim.engine import Event
from repro.util.errors import ReproError
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY


class StdFileBackend(Backend):
    def __init__(self, cluster: Cluster, comm: CommHandle, prefix: str = "stdfile"):
        super().__init__(comm)
        self.cluster = cluster
        self.prefix = prefix

    @classmethod
    def build(cls, comm, config, cluster, veloc_service, imr_store, ckpt_name):
        return cls(cluster, comm, prefix=ckpt_name)

    def _key(self, version: int) -> Tuple:
        return (self.prefix, int(version), self.comm.rank)

    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        engine = self.ctx.engine
        t0 = engine.now
        snapshot = {rid: v.copy_data() for rid, v in self._views.items()}
        total = sum(v.modeled_nbytes for v in self._views.values())
        yield from self.cluster.pfs.write(
            self._key(version), (snapshot, total), total, self.ctx.node
        )
        self.ctx.account.charge(CHECKPOINT_FUNCTION, engine.now - t0)

    def restore(self, version: int, views: List[View]) -> Generator[Event, Any, None]:
        self.register_views(views)
        engine = self.ctx.engine
        t0 = engine.now
        key = self._key(version)
        if not self.cluster.pfs.exists(key):
            raise ReproError(f"stdfile: no checkpoint version {version}")
        snapshot, _total = yield from self.cluster.pfs.read(key, self.ctx.node)
        for rid, array in snapshot.items():
            view = self._views.get(rid)
            if view is not None:
                view.load_data(array)
        self.ctx.account.charge(DATA_RECOVERY, engine.now - t0)

    def local_versions(self) -> Set[int]:
        found: Set[int] = set()
        for key in self.cluster.pfs.keys():
            if (
                isinstance(key, tuple)
                and len(key) == 3
                and key[0] == self.prefix
                and key[2] == self.comm.rank
            ):
                found.add(int(key[1]))
        return found
