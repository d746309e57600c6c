"""Configuration for the control-flow resilience context."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backends import resolve_backend
from repro.core.filters import always, Filter
from repro.util.errors import ConfigError

SCOPE_ALL = "all"
SCOPE_RECOVERED_ONLY = "recovered_only"


@dataclass(frozen=True)
class KRConfig:
    """Context configuration.

    Attributes:
        backend: which C/R backend the context drives (a name in
            :data:`repro.core.backends.BACKENDS`).
        veloc_single_mode: launch VeloC non-collectively and perform the
            best-version reduction in this layer (the paper's new
            configuration option enabling Fenix integration).
        filter: per-iteration checkpoint predicate.
        recovery_scope: ``"all"`` restores every rank (full rollback);
            ``"recovered_only"`` restores only replacement ranks (the
            partial-rollback demonstration of Section V-A).
        memoize_discovery: cache view discovery/classification per bound
            region (keyed by the region callable's code object, invalidated
            whenever any view registry changes), so steady-state
            ``checkpoint()`` calls skip the closure walk entirely.  The
            cache assumes a region's code object reaches the same
            pre-existing views on every call -- the Kokkos Resilience
            contract; disable for regions that data-dependently capture
            different long-lived views from call to call.
        veloc_incremental: copy-on-write incremental VeloC snapshots
            (see :class:`repro.veloc.config.VeloCConfig.incremental`).
        veloc_dedup: content-addressed chunk dedup on the VeloC node
            server (requires ``veloc_incremental``).
    """

    backend: str = "veloc"
    veloc_single_mode: bool = True
    filter: Filter = field(default=always)
    recovery_scope: str = SCOPE_ALL
    memoize_discovery: bool = True
    veloc_incremental: bool = True
    veloc_dedup: bool = True

    def __post_init__(self) -> None:
        resolve_backend(self.backend)
        if self.recovery_scope not in (SCOPE_ALL, SCOPE_RECOVERED_ONLY):
            raise ConfigError(f"unknown recovery scope {self.recovery_scope!r}")
        if self.veloc_dedup and not self.veloc_incremental:
            raise ConfigError("veloc_dedup requires veloc_incremental")
