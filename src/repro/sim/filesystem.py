"""Lustre-like parallel filesystem model.

The paper's Figure 5 discussion hinges on one structural fact: *many*
compute nodes write checkpoints through a *small* number of filesystem
management/storage nodes, so disk-based checkpointing bottlenecks on the
PFS while IMR spreads traffic over every NIC.  This model captures exactly
that: ``n_servers`` I/O servers, each a serializing
:class:`~repro.sim.resources.BandwidthPipe`; object writes are striped to a
server chosen round-robin and also traverse the writing node's NIC.

The data plane is real: payloads (numpy arrays / bytes) are stored in an
in-memory object dictionary and survive simulated job relaunches, exactly
like files on Lustre survive an ``mpirun`` restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, Optional

from repro.sim.engine import Engine, Event
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resources import BandwidthPipe, Piece, hold_pipes
from repro.util.errors import ConfigError, SimulationError
from repro.util.units import GiB, MiB


@dataclass(frozen=True)
class PFSSpec:
    """Parallel filesystem parameters.

    Defaults give an aggregate ~8 GB/s over 4 I/O servers -- small relative
    to 64 nodes x 10 GB/s of NIC bandwidth, reproducing the paper's
    "much smaller number of filesystem management nodes" bottleneck.
    """

    n_servers: int = 4
    server_bandwidth: float = 2.0 * GiB
    server_latency: float = 50.0e-6
    #: chunk size for striping/interleaving writes.
    chunk_bytes: float = 8.0 * MiB

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigError("PFS needs at least one I/O server")
        if self.server_bandwidth <= 0:
            raise ConfigError("PFS server bandwidth must be positive")
        if self.chunk_bytes <= 0:
            raise ConfigError("PFS chunk size must be positive")


class ParallelFileSystem:
    """The shared, persistent object store + its contention model."""

    def __init__(self, engine: Engine, network: Network, spec: PFSSpec) -> None:
        self.engine = engine
        self.network = network
        self.spec = spec
        self.servers = [
            BandwidthPipe(
                engine,
                bandwidth=spec.server_bandwidth,
                latency=spec.server_latency,
                name=f"pfs.ost{i}",
            )
            for i in range(spec.n_servers)
        ]
        self._objects: Dict[Any, Any] = {}
        self._sizes: Dict[Any, float] = {}
        self._rr = 0
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # -- data plane ------------------------------------------------------

    def exists(self, key: Any) -> bool:
        return key in self._objects

    def peek(self, key: Any) -> Any:
        """Zero-cost metadata read of a stored object (tests/diagnostics)."""
        return self._objects[key]

    def keys(self) -> list:
        return list(self._objects.keys())

    def delete(self, key: Any) -> None:
        self._objects.pop(key, None)
        self._sizes.pop(key, None)

    def wipe(self) -> None:
        self._objects.clear()
        self._sizes.clear()

    # -- timed operations --------------------------------------------------

    def _pieces(self, nic: BandwidthPipe, nbytes: float) -> Iterator[Piece]:
        """The pieces moving ``nbytes`` through the node's ``nic`` half:
        at least one, each holding the NIC and the round-robin I/O server
        (``_rr``) picked as it starts.  Every piece of a flush comes
        through here, so the arithmetic is inline: ``x if x <= y else y``
        is ``min(x, y)``."""
        if nbytes < 0:
            raise SimulationError(f"negative write size: {nbytes}")
        remaining = float(nbytes)
        chunk = self.spec.chunk_bytes
        servers = self.servers
        n_servers = len(servers)
        nic_bw = nic.bandwidth
        while True:
            piece = remaining if remaining <= chunk else chunk
            server = servers[self._rr % n_servers]
            self._rr += 1
            bw = server.bandwidth
            hold = server.latency + piece / (bw if bw <= nic_bw else nic_bw)
            yield nic, server, hold, piece
            remaining -= piece
            if remaining <= 0:
                break

    def _store(
        self, key: Any, payload: Any, nbytes: float, stored_nbytes: float
    ) -> None:
        """Keep ``payload`` under ``key`` once its ``nbytes`` have moved;
        a later read moves ``stored_nbytes`` back (more, when an
        incremental checkpoint moved only its dirty bytes)."""
        self.bytes_written += float(nbytes)
        self._objects[key] = payload
        self._sizes[key] = float(stored_nbytes)

    def write(
        self,
        key: Any,
        payload: Any,
        nbytes: float,
        src_node: Node,
    ) -> Generator[Event, Any, None]:
        """Write ``payload`` under ``key``, charging ``nbytes`` of traffic.

        The write is chunked; each chunk holds the source NIC TX and one
        I/O server pipe, so concurrent writers from many nodes queue on the
        few servers (the Lustre bottleneck) while the writer's own NIC is
        also made busy (congesting that node's application messages).
        The VeloC server runs the same pieces as a :class:`PipeHold`.
        """
        yield from hold_pipes(self.engine, self._pieces(src_node.tx, nbytes))
        self._store(key, payload, nbytes, nbytes)

    def read(
        self,
        key: Any,
        dst_node: Node,
        nbytes: Optional[float] = None,
    ) -> Generator[Event, Any, Any]:
        """Read the object under ``key`` into ``dst_node``; returns payload."""
        if key not in self._objects:
            raise KeyError(key)
        size = float(nbytes) if nbytes is not None else self._sizes.get(key, 0.0)
        if size > 0:
            yield from hold_pipes(self.engine, self._pieces(dst_node.rx, size))
        self.bytes_read += size
        return self._objects[key]
