"""Interconnect model.

Inter-node transfers hold both the sender's TX pipe and the receiver's RX
pipe for ``latency + nbytes/bandwidth`` seconds, so concurrent traffic to or
from the same node queues up (NIC contention) while disjoint node pairs
proceed in parallel -- the first-order behaviour that makes asynchronous
checkpoint flushes delay application messages in the paper's measurements.

Transfers larger than ``chunk_bytes`` are moved in chunks so competing
messages can interleave between chunks instead of stalling behind one
multi-hundred-megabyte flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterator, Sequence

from repro.sim.engine import Engine, Event
from repro.sim.node import Node
from repro.sim.resources import Piece, PipeHold, hold_pipes
from repro.util.errors import ConfigError, SimulationError
from repro.util.units import MiB


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect fabric parameters."""

    #: additional fabric latency per message beyond the NIC latency.
    fabric_latency: float = 0.5e-6
    #: default chunk size for preemptable bulk transfers.
    chunk_bytes: float = 4.0 * MiB

    def __post_init__(self) -> None:
        if self.fabric_latency < 0:
            raise ConfigError("fabric latency must be >= 0")
        if self.chunk_bytes <= 0:
            raise ConfigError("chunk size must be positive")


class Network:
    """Moves bytes between nodes, charging NIC + fabric costs."""

    def __init__(self, engine: Engine, nodes: Sequence[Node], spec: NetworkSpec) -> None:
        self.engine = engine
        self.nodes = list(nodes)
        self.spec = spec
        self.messages_sent = 0
        self.bytes_sent = 0.0

    def estimate_time(self, src: Node, dst: Node, nbytes: float) -> float:
        """Uncontended end-to-end estimate (used by cost sanity checks)."""
        if src is dst:
            return src.memcpy_time(nbytes)
        bw = min(src.tx.bandwidth, dst.rx.bandwidth)
        return src.tx.latency + self.spec.fabric_latency + float(nbytes) / bw

    def _account(self, nbytes: float) -> None:
        if nbytes < 0:
            raise SimulationError(f"negative transfer: {nbytes}")
        self.messages_sent += 1
        self.bytes_sent += float(nbytes)

    def _piece(self, src: Node, dst: Node, nbytes: float) -> Piece:
        """One inter-node piece: both NIC halves, taken in a global order
        to avoid lock cycles."""
        hold = self.estimate_time(src, dst, nbytes)  # nobody else on the NICs
        if dst.index < src.index:
            return dst.rx, src.tx, hold, nbytes
        return src.tx, dst.rx, hold, nbytes

    def _pieces(
        self, src: Node, dst: Node, nbytes: float, limit: float
    ) -> Iterator[Piece]:
        """At least one piece, none larger than ``limit``."""
        remaining = float(nbytes)
        while True:
            piece = min(remaining, limit)
            yield self._piece(src, dst, piece)
            remaining -= piece
            if remaining <= 0:
                break

    def transfer_cb(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        done: Callable[[Any], None],
        arg: Any = None,
    ) -> None:
        """Move one message of ``nbytes`` from ``src`` to ``dst``, then
        call ``done(arg)``: the per-message path of the MPI layer."""
        self._account(nbytes)
        if src is dst:
            self.engine.call_later(src.memcpy_time(nbytes), done, arg)
        else:
            PipeHold((self._piece(src, dst, nbytes),), done, arg)

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        chunked: bool = False,
    ) -> Generator[Event, Any, None]:
        """Generator form of :meth:`transfer_cb` for callers that are
        processes (the Fenix data stores).

        ``chunked=True`` splits the transfer at ``spec.chunk_bytes``
        boundaries, releasing the NICs between chunks; use it for background
        bulk traffic that must not head-of-line-block application messages.
        """
        self._account(nbytes)
        if src is dst:
            yield from src.memcpy(nbytes)
            return
        limit = self.spec.chunk_bytes if chunked else float(nbytes)
        yield from hold_pipes(self.engine,
                              self._pieces(src, dst, nbytes, limit))
