"""Configuration for the control-flow resilience context.

A VeloC backend always runs VeloC in the paper's ``single`` mode (the
best-version reduction is done here, over the possibly repaired
communicator), and view discovery is always memoized per region; neither
is a setting.
"""

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
        filter: per-iteration checkpoint predicate.
        recovery_scope: ``"all"`` restores every rank (full rollback);
            ``"recovered_only"`` restores only replacement ranks (the
            partial-rollback demonstration of Section V-A).
        veloc_incremental: copy-on-write incremental VeloC snapshots
            (see :class:`repro.veloc.config.VeloCConfig.incremental`).
    """

    backend: str = "veloc"
    filter: Filter = field(default=always)
    recovery_scope: str = SCOPE_ALL
    veloc_incremental: bool = True

    def __post_init__(self) -> None:
        resolve_backend(self.backend)
        if self.recovery_scope not in (SCOPE_ALL, SCOPE_RECOVERED_ONLY):
            raise ConfigError(f"unknown recovery scope {self.recovery_scope!r}")
