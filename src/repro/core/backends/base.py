"""Backend protocol for the control-flow resilience layer.

A backend persists and restores a set of views for integer versions.  All
potentially blocking operations are generators.  Region/member ids are
derived from view labels with a stable hash so that every rank -- and a
replacement rank rebuilding its state after recovery -- computes identical
ids without any coordination.
"""

from __future__ import annotations

import abc
import zlib
from typing import Any, Dict, Generator, List, Set

from repro.kokkos.view import View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.veloc.client import newest_common_version


def region_id_for(label: str) -> int:
    """Stable 31-bit region/member id for a view label."""
    return zlib.crc32(label.encode("utf-8")) & 0x7FFFFFFF


class Backend(abc.ABC):
    """Persists versions of registered views; a backend is a subclass
    plus its row in :data:`repro.core.backends.BACKENDS`."""

    def __init__(self, comm: CommHandle) -> None:
        self.comm = comm
        #: region id -> protected view
        self._views: Dict[int, View] = {}

    @property
    def ctx(self):
        return self.comm.ctx

    @classmethod
    @abc.abstractmethod
    def build(cls, comm: CommHandle, config: Any, cluster: Any,
              veloc_service: Any, imr_store: Any, ckpt_name: str) -> "Backend":
        """This rank's backend, from what ``make_context`` was handed; a
        :class:`ConfigError` names the resource that is missing."""

    def register_views(self, views: List[View]) -> None:
        """Make ``views`` the protected set (idempotent per label)."""
        for view in views:
            self._views[region_id_for(view.label)] = view

    @abc.abstractmethod
    def checkpoint(self, version: int) -> Generator[Event, Any, None]:
        """Persist the protected set as ``version``."""

    @abc.abstractmethod
    def restore(self, version: int, views: List[View]) -> Generator[Event, Any, None]:
        """Load ``version`` into ``views``."""

    @abc.abstractmethod
    def local_versions(self) -> Set[int]:
        """Versions restorable by this rank without communication."""

    def latest_version(self) -> Generator[Event, Any, int]:
        """The newest version restorable by *every* rank (or -1).

        Communicates (the paper's "manually performing a reduction
        operation to obtain a globally-best checkpoint").
        """
        return (yield from newest_common_version(self.comm, self.local_versions()))

    def reset(self, comm: CommHandle) -> None:
        """Adopt a repaired communicator and refresh cached identity."""
        self.comm = comm
