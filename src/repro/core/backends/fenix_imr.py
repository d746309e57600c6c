"""Fenix-IMR backend: buddy-memory checkpointing through the control layer.

This is the paper's future-work direction made concrete ("Further
integration of Fenix and Kokkos Resilience in the form of a data-resiliency
backend") and the implementation behind the "Fenix IMR" series of
Figure 5: the same checkpoint-region API, but versions live in pair-wise
redundant rank memory instead of the filesystem.
"""

from __future__ import annotations

from typing import Any, Generator, List, Set

from repro.core.backends.base import Backend
from repro.fenix.imr import IMRStore
from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.errors import ConfigError


class FenixIMRBackend(Backend):
    def __init__(self, imr: IMRStore, comm: CommHandle) -> None:
        super().__init__(comm)
        self.imr = imr

    @classmethod
    def build(cls, comm, config, cluster, veloc_service, imr_store, ckpt_name):
        if imr_store is None:
            raise ConfigError("Fenix-IMR backend requires an IMRStore")
        return cls(imr_store, comm)

    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        for member_id, view in self._views.items():
            yield from self.imr.store(self.ctx, self.comm, member_id, view, version)
        self.imr.commit(self.ctx, self.comm, version)

    def restore(self, version: int, views: List[View]) -> Generator[Event, Any, None]:
        self.register_views(views)
        for member_id, view in self._views.items():
            yield from self.imr.restore(self.ctx, self.comm, member_id, view, version)
        # a replacement that pulled the version from its buddy must still
        # answer it if that buddy then dies (on an odd-size communicator
        # nobody else holds it)
        self.imr.commit(self.ctx, self.comm, version)

    def local_versions(self) -> Set[int]:
        return self.imr.committed_versions(self.ctx, self.comm)

    def reset(self, comm: CommHandle) -> None:
        super().reset(comm)
        # a replacement process starts with no view objects; the next
        # checkpoint region re-registers what it discovers
        self._views.clear()
