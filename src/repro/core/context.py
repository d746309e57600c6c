"""The checkpoint context: Figure 4's ``ctx`` object.

Lifecycle (matching the paper's resilient-application pattern):

- ``INITIAL`` / ``RECOVERED`` ranks create a context with
  :func:`make_context`;
- ``SURVIVOR`` ranks call :meth:`Context.reset` with the repaired
  communicator -- which clears the checkpoint-metadata cache ("a
  checkpoint finished locally may not have finished globally") and pushes
  the new communicator/rank identity into the backend (and through it into
  VeloC);
- every rank then asks :meth:`Context.latest_version` where to resume and
  runs the iteration loop through :meth:`Context.checkpoint`.

:meth:`Context.checkpoint` is the single entry point for both directions:
on a recovery iteration it restores the discovered views instead of
executing the region; otherwise it executes the region and checkpoints
when the filter says so.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.core.backends import Backend, resolve_backend
from repro.core.config import KRConfig, SCOPE_RECOVERED_ONLY
from repro.core.detect import discover_views
from repro.fenix.imr import IMRStore
from repro.fenix.roles import Role
from repro.kokkos.registry import ViewCensus, registry_generation
from repro.mpi.handle import CommHandle
from repro.sim.cluster import Cluster
from repro.sim.engine import Event
from repro.util.errors import ConfigError
from repro.util.timing import CHECKPOINT_FUNCTION, DATA_RECOVERY, RESILIENCE_INIT
from repro.veloc import VeloCService


class Context:
    """Per-rank control-flow resilience context."""

    def __init__(self, comm: CommHandle, config: KRConfig, backend: Backend) -> None:
        self.comm = comm
        self.config = config
        self.backend = backend
        self.role: Role = Role.INITIAL
        self._latest_cache: Optional[int] = None
        self._recovery_version = -1
        self._recovery_pending = False
        self._post_failure = False
        self._subscriptions: List[Any] = []
        self._bound_label: Optional[str] = None
        # memoized discovery: region code object -> (registry generation,
        # census).  Steady-state checkpoint() calls skip the closure walk
        # whenever no registry changed since the census was taken.
        self._census_cache: dict = {}
        self.discoveries_memoized = 0
        #: census of the most recent checkpoint region (Figure-7 reporting)
        self.last_census: Optional[ViewCensus] = None
        self.checkpoints_taken = 0
        self.recoveries_done = 0

    @property
    def ctx(self):
        return self.comm.ctx

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, obj: Any) -> None:
        """Add an extra discovery root (an app-state object holding views)."""
        self._subscriptions.append(obj)
        self._census_cache.clear()

    # -- role / reset -----------------------------------------------------------

    def set_role(self, role: Role) -> None:
        self.role = role

    def reset(self, comm: CommHandle, role: Role = Role.SURVIVOR) -> None:
        """Adopt a repaired communicator (the paper's extended reset).

        Clears cached checkpoint metadata, updates this context's and the
        backend's (and VeloC's) communicator and rank identity.
        """
        self.comm = comm
        self.role = role
        self._latest_cache = None
        self._recovery_pending = False
        self._post_failure = True
        self._census_cache.clear()
        self.backend.reset(comm)
        tel = self.ctx.engine.telemetry
        if tel.enabled:
            tel.instant(f"rank{self.ctx.rank}", "kr.reset", role=role.name)
            tel.rank_metrics(self.ctx.rank).inc("kr.resets")

    # -- version metadata -----------------------------------------------------------

    def latest_version(self) -> Generator[Event, Any, int]:
        """The newest globally restorable version (cached until reset).

        Arms recovery: if a version exists, the checkpoint region for that
        iteration will restore instead of execute.
        """
        if self._latest_cache is None:
            label = DATA_RECOVERY if self._post_failure else RESILIENCE_INIT
            tel = self.ctx.engine.telemetry
            with tel.span(f"rank{self.ctx.rank}", "kr.latest",
                          post_failure=self._post_failure):
                with self.ctx.account.label(label):
                    version = yield from self.backend.latest_version()
            self._latest_cache = version
        self._recovery_version = self._latest_cache
        self._recovery_pending = self._latest_cache >= 0
        return self._latest_cache

    # -- the checkpoint region ------------------------------------------------------

    def checkpoint(
        self,
        label: str,
        iteration: int,
        fn: Callable[[], Any],
    ) -> Generator[Event, Any, bool]:
        """Execute (or recover) one checkpoint region.

        Discovers the views reachable from ``fn``, classifies them
        (checkpointed / alias / skipped), and either:

        - **recovers**: when this iteration is the armed recovery version,
          restores the views instead of executing ``fn`` (full rollback) --
          or skips restoration on survivors under the partial-rollback
          scope -- and returns ``False``;
        - **executes**: runs ``fn`` (a plain callable or a generator
          function performing MPI), then checkpoints if the configured
          filter accepts the iteration, and returns ``True``.

        One context serves one checkpoint region: the first call binds
        ``label`` and later calls must match (a second region needs its
        own context, as in Kokkos Resilience practice -- backend version
        keys do not encode the label).
        """
        if self._bound_label is None:
            self._bound_label = label
        elif label != self._bound_label:
            raise ConfigError(
                f"context already bound to region {self._bound_label!r}; "
                f"create a separate context for {label!r}"
            )
        engine = self.ctx.engine
        tel = engine.telemetry
        trace = self.ctx.world.trace
        rank = self.ctx.rank
        trace.emit(engine.now, f"kr.rank{rank}", "kr_region_begin",
                   label=label, iteration=int(iteration))
        with tel.span(f"rank{rank}", "kr.region",
                      label=label, iteration=int(iteration)):
            census = self._discover(fn)
            self.last_census = census
            to_save = census.checkpointed
            if self._recovery_pending and iteration == self._recovery_version:
                self._recovery_pending = False
                skip_restore = (
                    self.config.recovery_scope == SCOPE_RECOVERED_ONLY
                    and self.role is not Role.RECOVERED
                )
                if not skip_restore:
                    with tel.span(f"rank{rank}", "kr.restore",
                                  version=int(iteration)):
                        with self.ctx.account.label(DATA_RECOVERY):
                            yield from self.backend.restore(iteration, to_save)
                            yield from self._stage_device_views(to_save)
                    self.recoveries_done += 1
                    if tel.enabled:
                        tel.rank_metrics(rank).inc("kr.recoveries")
                return False
            result = fn()
            if hasattr(result, "send"):  # generator region: drive it
                yield from result
            if self.config.filter(iteration):
                self.backend.register_views(to_save)
                with tel.span(f"rank{rank}", "kr.commit",
                              version=int(iteration)):
                    with self.ctx.account.label(CHECKPOINT_FUNCTION):
                        yield from self._stage_device_views(to_save)
                        yield from self.backend.checkpoint(iteration)
                self.checkpoints_taken += 1
                trace.emit(engine.now, f"kr.rank{rank}", "kr_region_commit",
                           label=label, iteration=int(iteration))
                if tel.enabled:
                    tel.rank_metrics(rank).inc("kr.commits")
        return True

    def _stage_device_views(self, views: List[Any]) -> Generator[Event, Any, None]:
        """Move device-resident views across the device link.

        Figure 3's "Heterogenous Device Data Management": checkpoint data
        living in accelerator memory is staged through the host before a
        write (and back after a restore), at the node's device-link
        bandwidth.  Host views cost nothing here.
        """
        device_bytes = sum(v.modeled_nbytes for v in views if v.on_device)
        if device_bytes > 0:
            dt = self.ctx.node.device_copy_time(device_bytes)
            yield self.ctx.engine.timeout(dt)
            # charged under the caller's label (checkpoint fn / recovery)
            self.ctx.account.charge("compute", dt)

    def _discover(self, fn: Callable[[], Any]) -> ViewCensus:
        """Discover and classify the views reachable from ``fn``.

        The census is cached per region code object (one heatdis
        iteration closure compiles once, so every iteration shares a key)
        and reused as long as no view registry anywhere in the process
        has changed -- the common steady state, where ``checkpoint()``
        then skips the closure walk entirely.  The cache assumes a
        region's code object reaches the same pre-existing views on every
        call: the Kokkos Resilience contract.
        """
        # partials and bound methods memoize on the underlying function's
        # code object; anything without one is freshly discovered each
        # call (caching on the object itself would grow without bound)
        code = getattr(fn, "__code__", None)
        if code is None:
            code = getattr(getattr(fn, "func", None), "__code__", None)
        if code is None:
            code = getattr(getattr(fn, "__func__", None), "__code__", None)
        if code is None:
            views = discover_views(fn, extra=self._subscriptions or None)
            return self._classify(views)
        key = code
        gen = registry_generation()
        cached = self._census_cache.get(key)
        if cached is not None and cached[0] == gen:
            self.discoveries_memoized += 1
            return cached[1]
        views = discover_views(fn, extra=self._subscriptions or None)
        census = self._classify(views)
        self._census_cache[key] = (gen, census)
        return census

    def _classify(self, views: List[Any]) -> ViewCensus:
        """Census using each view's own registry for alias declarations."""
        census = ViewCensus()
        seen_buffers = set()
        for view in views:
            registry = view.registry
            if registry is not None and registry.is_alias(view):
                census.aliases.append(view)
                continue
            buf = view.buffer_id()
            if buf in seen_buffers:
                census.skipped.append(view)
                continue
            seen_buffers.add(buf)
            census.checkpointed.append(view)
        return census


def make_context(
    comm: CommHandle,
    config: KRConfig,
    cluster: Cluster,
    veloc_service: Optional[VeloCService] = None,
    imr_store: Optional[IMRStore] = None,
    ckpt_name: str = "kr",
) -> Context:
    """Build a context with the configured backend (Figure 4's
    ``KokkosResilience::make_context``)."""
    backend = resolve_backend(config.backend).build(
        comm, config, cluster, veloc_service, imr_store, ckpt_name)
    return Context(comm, config, backend)
