"""Fenix runtime: spare management, repair protocol, the run loop.

One :class:`FenixSystem` exists per MPI world (per job).  Every world rank
executes :meth:`FenixSystem.run`, which plays the part of the
``Fenix_Init`` call in Figure 2 of the paper:

- ranks below ``world.n_ranks - n_spares`` become *active* members of the
  resilient communicator and run the application main;
- the rest are *spares* that block inside run() until a failure consumes
  them or the job completes.

On failure, survivors long-jump back into run(), spares wake on the world
failure event, and everyone rendezvouses at the **repair gate**.  The
repair builds a same-size communicator with spares substituted in-place
for the dead (keeping rank ids stable for checkpoint keys), assigns roles,
and re-enters the application main.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.fenix.errors import FenixLongJump, SpareExhaustionError
from repro.fenix.handle import FenixCommHandle
from repro.fenix.roles import Role
from repro.mpi.comm import CollectiveGate, Communicator
from repro.mpi.errors import MPIError
from repro.mpi.world import RankContext, World
from repro.sim.engine import Event
from repro.util.errors import ConfigError
from repro.util.timing import RESILIENCE_INIT

#: repair-gate policies when spares run out
POLICY_SHRINK = "shrink"
POLICY_ABORT = "abort"


@dataclass
class RepairResult:
    """Outcome of one repair generation, delivered to every alive rank."""

    generation: int
    comm: Communicator
    #: world_rank -> Role for ranks active in the new communicator
    roles: Dict[int, "Any"]


class FenixSystem:
    """Shared Fenix state for one world.

    ``spare_policy`` says what a repair does once more members have died
    than spares remain.  ``"abort"``, the default, gives the job up:
    every rank raises :class:`SpareExhaustionError` out of :meth:`run`
    (through :func:`repro.harness.run_job` that is a teardown and a
    relaunch, not an error).  ``"shrink"`` drops the dead slots and hands
    the application a smaller communicator -- only for an application
    that can redistribute its data over it (docs/PROTOCOLS.md §4).
    """

    def __init__(
        self,
        world: World,
        n_spares: int,
        spare_policy: str = POLICY_ABORT,
        init_cost: float = 1e-4,
        n_active: Optional[int] = None,
    ) -> None:
        if n_spares < 0 or n_spares >= world.n_ranks:
            raise ConfigError(
                f"n_spares={n_spares} invalid for a {world.n_ranks}-rank world"
            )
        if spare_policy not in (POLICY_SHRINK, POLICY_ABORT):
            raise ConfigError(f"unknown spare policy {spare_policy!r}")
        self.world = world
        self.n_spares = n_spares
        self.spare_policy = spare_policy
        #: modelled cost of Fenix_Init (communicator dup + handler setup)
        self.init_cost = init_cost
        if n_active is None:
            n_active = world.n_ranks - n_spares
        if n_active < 1 or n_active + n_spares > world.n_ranks:
            raise ConfigError(
                f"n_active={n_active} + n_spares={n_spares} does not fit "
                f"a {world.n_ranks}-rank world"
            )
        self.spare_pool: List[int] = list(range(n_active, n_active + n_spares))
        #: world ranks participating in the protocol.  Ranks beyond the
        #: initial active+spare set are *dynamic spares* (the future-work
        #: "growing the total number of ranks dynamically"): they join the
        #: pool when their process eventually enters run(), and repairs do
        #: not wait for them before that.
        self.registered: set = set(range(n_active + n_spares))
        self.generation = 0
        self.resilient_comm: Communicator = world.create_comm(
            list(range(n_active)), name="fenix.resilient.g0"
        )
        # the repair rendezvous gathers survivors *and* spares, which no
        # single communicator contains: every alive rank in the protocol
        self._repair_gate = CollectiveGate(
            self, "fenix.repair", FenixSystem._finalize_repair,
            expected=lambda system: (set(system.world.alive_ranks())
                                     & system.registered),
        )
        # Fenix_Finalize is a collective of the resilient communicator's
        # members, all of them: a dead one fails it (_finalize_members)
        self._finalize_gate = CollectiveGate(
            self, "fenix.finalize",
            lambda system, _arrived: system.world.signal_job_done(),
            expected=FenixSystem._finalize_members,
        )
        # a death re-evaluates both: the repair gate stops expecting the
        # corpse, finalize fails on every member already waiting
        world.add_death_listener(lambda _rank: (
            self._repair_gate.recheck(), self._finalize_gate.recheck()))
        self.detections: List[Dict[str, Any]] = []

    # -- error-handler hook ----------------------------------------------------

    def note_detection(self, ctx: RankContext, exc: BaseException) -> None:
        """Record that ``ctx`` detected a failure (diagnostics/tests)."""
        self.detections.append(
            {
                "time": self.world.engine.now,
                "rank": ctx.rank,
                "error": type(exc).__name__,
                "generation": self.generation,
            }
        )
        self.world.trace.emit(
            self.world.engine.now, "fenix", "detect", rank=ctx.rank,
            error=type(exc).__name__,
        )
        tel = self.world.engine.telemetry
        if tel.enabled:
            tel.instant(f"rank{ctx.rank}", "fenix.detect",
                        error=type(exc).__name__, generation=self.generation)
            tel.rank_metrics(ctx.rank).inc("fenix.detections")

    # -- repair ------------------------------------------------------------------

    def _finalize_repair(self, contributions: Dict[int, Any]) -> RepairResult:
        """Build the repaired communicator (runs once per generation, when
        every alive rank has reached the gate)."""
        world = self.world
        tel = world.engine.telemetry
        old = self.resilient_comm
        if not old.revoked:
            old.revoke()
        new_members: List[int] = []
        roles: Dict[int, Role] = {}
        available = [s for s in self.spare_pool if world.is_alive(s)]
        for w in old.members:  # a dead one with no spare left is dropped
            if world.is_alive(w):
                new_members.append(w)
                roles[w] = Role.SURVIVOR
            elif available:
                replacement = available.pop(0)
                self.spare_pool.remove(replacement)
                new_members.append(replacement)
                roles[replacement] = Role.RECOVERED
                world.trace.emit(
                    world.engine.now, "fenix", "spare_activated",
                    spare=replacement, replaces=w,
                    generation=self.generation + 1,
                )
                if tel.enabled:
                    tel.instant(f"rank{replacement}", "fenix.spare_activated",
                                replaces=w, generation=self.generation + 1)
        self.generation += 1
        dead_members = [w for w in old.members if not world.is_alive(w)]
        # the shrink step: the surviving membership is now decided
        world.trace.emit(
            world.engine.now, "fenix", "shrink",
            generation=self.generation, comm=old.name,
            survivors=list(new_members), dead=dead_members,
        )
        if tel.enabled:
            tel.instant("fenix", "fenix.shrink", generation=self.generation,
                        survivors=len(new_members),
                        dead=dead_members)
            tel.set_gauge("fenix.spare_pool_depth",
                          len([s for s in self.spare_pool if world.is_alive(s)]))
        if len(new_members) < old.size and self.spare_policy == POLICY_ABORT:
            world.trace.emit(world.engine.now, "fenix", "abort",
                             generation=self.generation)
            if tel.enabled:
                tel.instant("fenix", "fenix.abort", generation=self.generation)
            # not a smaller job: the repair fails, on every rank at the gate
            raise SpareExhaustionError("job aborted: spares exhausted")
        comm = world.create_comm(
            new_members, name=f"fenix.resilient.g{self.generation}"
        )
        self.resilient_comm = comm
        world.trace.emit(
            world.engine.now,
            "fenix",
            "repair",
            generation=self.generation,
            size=comm.size,
            comm=comm.name,
            old_comm=old.name,
            members=list(new_members),
            contributors=sorted(contributions),
            recovered=[w for w, r in roles.items() if r is Role.RECOVERED],
        )
        # role assignment: one record per member of the new communicator
        for w in new_members:
            world.trace.emit(
                world.engine.now, "fenix", "role",
                rank=w, role=roles[w].name, generation=self.generation,
            )
        # the agreement: every alive rank observes the same repair result
        world.trace.emit(
            world.engine.now, "fenix", "agree",
            generation=self.generation, comm=comm.name, size=comm.size,
        )
        if tel.enabled:
            tel.instant("fenix", "fenix.agree", generation=self.generation,
                        size=comm.size)
            tel.inc("fenix.repairs")
        return RepairResult(self.generation, comm, roles)

    # -- the run loop (Fenix_Init + long-jump target) ------------------------------

    def run(
        self,
        ctx: RankContext,
        main: Callable[..., Generator],
    ) -> Generator[Event, Any, Any]:
        """Execute ``main(role, handle)`` under Fenix protection.

        This generator is the whole lifetime of one rank inside the Fenix
        protocol: initialization, the application main, every recovery
        re-entry, and finalization.  Returns ``main``'s return value for
        active ranks, ``None`` for spares that were never consumed.
        """
        world = self.world
        engine = world.engine
        tel = engine.telemetry
        ctx.user["fenix_system"] = self
        # Fenix_Init cost (duplicating communicators, installing handlers)
        with tel.span(f"rank{ctx.rank}", "fenix.init"):
            yield engine.timeout(self.init_cost)
        ctx.account.charge(RESILIENCE_INIT, self.init_cost)

        if self.resilient_comm.comm_rank(ctx.rank) is not None:
            role = Role.INITIAL
        else:
            role = Role.SPARE
            if ctx.rank not in self.spare_pool and ctx.rank not in self.registered:
                # a dynamically added spare joins the pool on arrival
                self.spare_pool.append(ctx.rank)
        self.registered.add(ctx.rank)
        world.trace.emit(
            engine.now, "fenix", "role",
            rank=ctx.rank, role=role.name, generation=self.generation,
        )

        while True:
            if role is Role.SPARE:
                # Block in Fenix_Init until a failure consumes us or the
                # job completes (Figure 2's spare-rank behaviour).  A
                # failure may already be pending -- e.g. a rank that died
                # during job startup, before this spare began waiting --
                # in which case we go straight to the repair rendezvous.
                # A death outside the resilient comm (e.g. a fellow
                # spare) is no reason to: no survivor revokes the comm,
                # so the gate would hang forever.  Resume waiting.
                while not (world.job_done.triggered
                           or self.resilient_comm.failed_members()):
                    yield engine.any_of([world.failure_watch(), world.job_done])
                if world.job_done.triggered:
                    return None  # job finished; spare exits cleanly
                via = "spare"
            else:
                # -- active rank: run the application main, then finalize --
                handle = FenixCommHandle(self.resilient_comm, ctx)
                try:
                    result = yield from main(role, handle)
                    yield from self._finalize(handle)
                    return result
                except FenixLongJump:
                    via = "longjump"
            # -- the repair gate: where every rank learns its next role -----
            with tel.span(f"rank{ctx.rank}", "fenix.repair",
                          generation=self.generation, via=via):
                world.trace.emit(
                    engine.now, "fenix", "gate_arrive",
                    gate="fenix.repair", rank=ctx.rank,
                )
                repair: RepairResult = yield self._repair_gate.arrive(ctx.rank)
            if ctx.rank in repair.roles:  # else: still a spare, wait again
                role = repair.roles[ctx.rank]
                if tel.enabled:
                    tel.instant(f"rank{ctx.rank}", "fenix.role",
                                role=role.name, generation=repair.generation)

    def _finalize_members(self) -> List[int]:
        """Who Fenix_Finalize waits for: every member -- raising, as any
        collective on the resilient communicator does, once one is dead."""
        self.resilient_comm.check_collective()
        return self.resilient_comm.members

    def _finalize(self, handle: FenixCommHandle) -> Generator[Event, Any, None]:
        """Fenix_Finalize: a collective of the resilient communicator's
        members (spares are not participants -- its completion releases
        them via the job-done signal) that costs no simulated time and no
        message.  It fails like any other: a member that is dead, or dies
        while the others wait, sends every waiter through the handle's
        error handler to the repair gate.  Arriving is not retiring."""
        rank = handle.ctx.rank
        self.world.trace.emit(
            self.world.engine.now, "fenix", "finalize_arrive", rank=rank,
        )
        done = self._finalize_gate.arrive(rank)
        try:
            if not done.ok:  # the arrival that completes it does not wait
                yield done
        except MPIError as exc:
            handle._on_mpi_error(exc)
            raise

    def spawn_all(
        self,
        main: Callable[..., Generator],
        failure_plan: Optional[Any] = None,
    ) -> None:
        """Convenience: spawn run(main) on every world rank."""
        for r in range(self.world.n_ranks):
            ctx = self.world.context(r)
            self.world.spawn(
                r, self.run(ctx, main), failure_plan=failure_plan,
                name=f"fenix:rank{r}",
            )
