"""VeloC backend for the control-flow layer.

VeloC always runs in the paper's ``single`` mode (Section V): it is
launched non-collectively and *this backend* performs the best-version
reduction over the current -- possibly repaired -- communicator, then
hands the agreed version to VeloC.  Stock Kokkos Resilience's
``collective`` mode, where VeloC's own communicator-wide query finds the
version, breaks under Fenix repair because VeloC caches the communicator
it was initialized with; it is not offered here.

:meth:`reset` implements the other paper modification: accepting a new
communicator and pushing the refreshed rank identity down into VeloC.
"""

from __future__ import annotations

from typing import Any, Generator, List, Set

from repro.core.backends.base import Backend, region_id_for
from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.errors import ConfigError
from repro.veloc.client import VeloCClient
from repro.veloc.config import VeloCConfig


class VeloCBackend(Backend):
    def __init__(self, client: VeloCClient, comm: CommHandle) -> None:
        super().__init__(comm)
        self.client = client

    @classmethod
    def build(cls, comm, config, cluster, veloc_service, imr_store, ckpt_name):
        if veloc_service is None:
            raise ConfigError("VeloC backend requires a VeloCService")
        vconf = VeloCConfig(
            mode="single",
            ckpt_name=ckpt_name,
            incremental=config.veloc_incremental,
        )
        return cls(VeloCClient(comm.ctx, cluster, veloc_service, vconf, comm=comm),
                   comm)

    def register_views(self, views: List[View]) -> None:
        for view in views:
            self.client.mem_protect(region_id_for(view.label), view)

    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        yield from self.client.checkpoint(version)

    def restore(self, version: int, views: List[View]) -> Generator[Event, Any, None]:
        self.register_views(views)
        yield from self.client.recover(version)

    def local_versions(self) -> Set[int]:
        return self.client.local_versions()

    def reset(self, comm: CommHandle) -> None:
        super().reset(comm)
        self.client.set_comm(comm)
