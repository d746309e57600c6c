"""The MPI world: a job of N rank processes on a cluster.

The :class:`World` owns rank-to-node placement, rank lifecycle (alive /
dead / finished), the failure-notification fan-out to communicators and
watchers (Fenix spares block on :meth:`failure_watch`), and
``MPI_COMM_WORLD``.

A world corresponds to one ``mpirun`` invocation.  Relaunch-based
resilience strategies create a *new* world on the same cluster for every
restart; Fenix-based strategies keep one world alive across failures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Set

import numpy as np

from repro.mpi.comm import Communicator
from repro.mpi.handle import CommHandle
from repro.sim.cluster import Cluster
from repro.sim.engine import Event, Process
from repro.sim.failures import FailurePlan, NoFailures, RankKilledError
from repro.sim.node import Node
from repro.util.errors import ConfigError
from repro.util.timing import TimeAccount


class RankContext:
    """Everything private to one rank: placement, clock accounting, RNG."""

    def __init__(self, world: "World", rank: int, node: Node, rng: np.random.Generator):
        self.world = world
        self.rank = rank
        self.node = node
        self.rng = rng
        self.account = TimeAccount()
        self.alive = True
        #: scratch space for upper layers (Fenix role, KR context, ...)
        self.user: Dict[str, Any] = {}

    @property
    def engine(self):
        return self.world.engine

    def compute(
        self,
        work: Optional[float] = None,
        seconds: Optional[float] = None,
        jitter: float = 0.0,
        kind: str = "compute",
    ) -> Generator[Event, Any, float]:
        """Charge a block of local computation.

        ``work`` is divided by the node's throughput; ``seconds`` charges a
        fixed duration.  ``jitter`` applies multiplicative lognormal noise
        with unit mean (the paper's "performance variability ... a type of
        system noise"), drawn from this rank's private stream.
        Returns the charged duration.
        """
        if (work is None) == (seconds is None):
            raise ConfigError("compute() needs exactly one of work= or seconds=")
        dt = self.node.compute_time(work) if work is not None else float(seconds)
        if jitter > 0.0:
            # lognormal with E[factor]=1: exp(N(-s^2/2, s^2))
            dt *= float(np.exp(self.rng.normal(-0.5 * jitter**2, jitter)))
        congested = 0.0
        if self.node.active_flushes > 0:
            # the co-located checkpoint server steals memory bandwidth
            congested = dt * self.node.spec.flush_compute_steal
            dt += congested
        tel = self.engine.telemetry
        if tel.enabled:
            with tel.span(f"rank{self.rank}", "compute",
                          kind=kind, congestion=congested):
                yield self.engine.timeout(dt)
        else:
            yield self.engine.timeout(dt)
        self.account.charge(kind, dt)
        return dt

    def sleep(self, seconds: float, kind: Optional[str] = None):
        """Idle for ``seconds``; optionally charge it to a bucket."""
        tel = self.engine.telemetry
        if tel.enabled:
            with tel.span(f"rank{self.rank}", "sleep", kind=kind):
                yield self.engine.timeout(seconds)
        else:
            yield self.engine.timeout(seconds)
        if kind is not None:
            self.account.charge(kind, seconds)

    @contextmanager
    def recompute(self, iteration: int) -> Iterator[None]:
        """One re-executed iteration: charge the ``recompute`` bucket and
        record a span + counter, and a ``recompute`` record where the
        span ends, so a recovery walk sees the recompute window the paper
        identifies as the bulk of recovery cost."""
        tel = self.engine.telemetry
        if tel.enabled:
            tel.rank_metrics(self.rank).inc("recompute.iterations")
        source = f"rank{self.rank}"
        with tel.span(source, "recompute", iteration=iteration):
            with self.account.label("recompute"):
                yield
        self.world.trace.emit(self.engine.now, source, "recompute",
                              iteration=iteration)

    @contextmanager
    def iteration(self, iteration: int, tracker: Any,
                  slot: int) -> Iterator[None]:
        """One application iteration under a recompute ``tracker`` (the
        harness's per-slot high-watermark): an iteration ``slot`` has
        already executed runs under :meth:`recompute`; a first execution
        advances the watermark once its body has completed, so a body
        the kill interrupts advances nothing.  No ``tracker``, no
        bookkeeping."""
        if tracker is None:
            yield
        elif tracker.is_recompute(slot, iteration):
            with self.recompute(iteration):
                yield
        else:
            yield
            tracker.advance(slot, iteration)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "dead"
        return f"<RankContext rank={self.rank} on {self.node.name} {state}>"


class World:
    """One MPI job: rank processes, placement, failure tracking."""

    def __init__(
        self,
        cluster: Cluster,
        n_ranks: int,
        ranks_per_node: int = 1,
        name: str = "world",
    ) -> None:
        if n_ranks < 1:
            raise ConfigError("world needs at least one rank")
        if ranks_per_node < 1:
            raise ConfigError("ranks_per_node must be >= 1")
        if n_ranks > cluster.n_nodes * ranks_per_node:
            raise ConfigError(
                f"{n_ranks} ranks do not fit on {cluster.n_nodes} nodes "
                f"at {ranks_per_node} ranks/node"
            )
        self.cluster = cluster
        self.engine = cluster.engine
        self.network = cluster.network
        self.trace = cluster.trace
        self.name = name
        self.n_ranks = n_ranks
        self.ranks_per_node = ranks_per_node
        self._node_of: List[Node] = [
            cluster.node(r // ranks_per_node) for r in range(n_ranks)
        ]
        self.dead: Set[int] = set()
        self.errors: List[tuple] = []  # (rank, exception) for non-kill crashes
        self._comms: List[Communicator] = []
        self._death_listeners: List[Callable[[int], None]] = []
        self.contexts: Dict[int, RankContext] = {}
        self.procs: Dict[int, Process] = {}
        self._failure_event: Event = self.engine.event(name=f"{name}:failure")
        self.job_done: Event = self.engine.event(name=f"{name}:job_done")
        rng_factory = cluster.rng_factory.child(name)
        for r in range(n_ranks):
            self.contexts[r] = RankContext(
                self, r, self._node_of[r], rng_factory.stream(f"rank{r}")
            )
        self.comm_world = Communicator(self, list(range(n_ranks)), f"{name}.comm")

    # -- registration / lookups -----------------------------------------------

    def register_comm(self, comm: Communicator) -> None:
        self._comms.append(comm)

    def node_of_rank(self, world_rank: int) -> Node:
        return self._node_of[world_rank]

    def context(self, world_rank: int) -> RankContext:
        return self.contexts[world_rank]

    def comm_world_handle(self, world_rank: int) -> CommHandle:
        return CommHandle(self.comm_world, self.contexts[world_rank])

    def is_alive(self, world_rank: int) -> bool:
        return world_rank not in self.dead

    def alive_ranks(self) -> List[int]:
        return [r for r in range(self.n_ranks) if r not in self.dead]

    # -- lifecycle ---------------------------------------------------------------

    def spawn(
        self,
        rank: int,
        gen: Generator,
        failure_plan: Optional[FailurePlan] = None,
        name: str = "",
    ) -> Process:
        """Launch rank ``rank``'s main as a process and watch its exit."""
        if rank in self.procs:
            raise ConfigError(f"rank {rank} already spawned")
        proc = self.engine.process(gen, name=name or f"{self.name}:rank{rank}")
        self.procs[rank] = proc
        proc.add_callback(lambda ev, r=rank: self._on_rank_exit(r, ev))
        plan = failure_plan or NoFailures()
        plan.arm(self.engine, rank, proc)
        tel = self.engine.telemetry
        if tel.enabled:
            tel.instant("engine", "rank_spawn", rank=rank, world=self.name)
        return proc

    def _on_rank_exit(self, rank: int, ev: Event) -> None:
        if ev.ok:
            self.trace.emit(self.engine.now, self.name, "rank_exit", rank=rank)
            return
        exc = ev.exception
        if isinstance(exc, RankKilledError):
            self.trace.emit(self.engine.now, self.name, "rank_killed", rank=rank)
            tel = self.engine.telemetry
            if tel.enabled:
                tel.instant(f"rank{rank}", "rank_killed", world=self.name)
            self.mark_dead(rank)
            return
        # A genuine crash (bug or unrecovered MPI error): remember it so the
        # harness can surface it; also treat the rank as dead so peers
        # unblock rather than deadlock.
        self.errors.append((rank, exc))
        self.trace.emit(
            self.engine.now,
            self.name,
            "rank_crashed",
            rank=rank,
            error=repr(exc),
        )
        self.mark_dead(rank)

    def mark_dead(self, world_rank: int) -> None:
        """Record a rank death and notify every interested party."""
        if world_rank in self.dead:
            return
        self.dead.add(world_rank)
        ctx = self.contexts.get(world_rank)
        if ctx is not None:
            ctx.alive = False
        # recorded before anyone is told, so that what this death decides
        # (a gate completing without the rank) follows it in the stream
        self.trace.emit(self.engine.now, self.name, "rank_dead", rank=world_rank)
        tel = self.engine.telemetry
        if tel.enabled:
            tel.instant(f"rank{world_rank}", "rank_dead", world=self.name)
            tel.inc("mpi.ranks_died")
        for comm in self._comms:
            comm.on_rank_death(world_rank)
        for listener in list(self._death_listeners):
            listener(world_rank)
        ev, self._failure_event = self._failure_event, self.engine.event(
            name=f"{self.name}:failure"
        )
        ev.succeed(world_rank)

    def add_death_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked (synchronously) at each rank death.

        Fenix uses this to re-check its repair rendezvous when a member
        dies while others are already waiting."""
        self._death_listeners.append(listener)

    def failure_watch(self) -> Event:
        """The event that fires (with the dead world rank) at the *next*
        failure.  Grab a fresh one after each firing."""
        return self._failure_event

    def signal_job_done(self) -> None:
        """Mark the job complete (releases spares blocked pre-main)."""
        if not self.job_done.triggered:
            self.job_done.succeed(None)

    def create_comm(self, members: List[int], name: str = "") -> Communicator:
        """Build a communicator over the given world ranks (Fenix uses this
        for the resilient communicator and its repairs)."""
        return Communicator(self, members, name=name)

    def raise_job_errors(self) -> None:
        """Re-raise the first non-kill rank crash, if any (harness hook)."""
        if self.errors:
            rank, exc = self.errors[0]
            raise exc

    def close(self) -> None:
        """The job is over: let go of everything that points back at this
        world or at a rank context -- the contexts and what upper layers
        keep in their ``user`` dicts, the communicators, the death
        listeners, the failure watch (with whoever still waits on it),
        and the tracebacks of what the ranks died of (their frames hold
        the job) -- so that what is left of the job is freed by reference
        counting.  Nothing may run on the world afterwards;
        ``dead``, ``errors`` and ``procs`` still say who died of what."""
        for proc in self.procs.values():
            if proc.exception is not None:
                proc.exception.__traceback__ = None
        for ctx in self.contexts.values():
            ctx.user.clear()
        self.contexts.clear()
        self._comms.clear()
        self._death_listeners.clear()
        self._failure_event = None
        self.comm_world = None
