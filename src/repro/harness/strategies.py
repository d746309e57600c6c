"""The resilience configurations evaluated in the paper.

Each :class:`StrategySpec` names one stacked-bar column of Figure 5 /
Figure 6:

================  =======  ====  ==========  =====================================
name              process  c-f   data        paper label
================  =======  ====  ==========  =====================================
none              --       --    --          reference (no resilience)
veloc             relaunch man.  VeloC       "VeloC alone"
kr_veloc          relaunch KR    VeloC       "Kokkos Resilience" (without Fenix)
fenix_veloc       Fenix    man.  VeloC       "Fenix with VeloC, no Kokkos Res."
fenix_kr_veloc    Fenix    KR    VeloC       the paper's integrated system
fenix_kr_imr      Fenix    KR    Fenix IMR   "IMR" buddy checkpointing
fenix_kr_partial  Fenix    KR    VeloC       partial rollback (convergence app)
================  =======  ====  ==========  =====================================

"relaunch" means failures abort the job and the harness restarts it
(classic fail-restart); "man." means hand-written checkpoint management
(:mod:`repro.apps.heatdis_manual`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends import resolve_backend
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class StrategySpec:
    """One resilience configuration."""

    name: str
    #: Fenix process recovery (False -> relaunch the job on failure)
    fenix: bool
    #: Kokkos Resilience manages C/R (False -> manual integration)
    kr: bool
    #: data backend: a name in ``repro.core.backends.BACKENDS``, or "none"
    backend: str
    #: KR recovery scope ("all" or "recovered_only")
    scope: str = "all"

    def __post_init__(self) -> None:
        if self.backend != "none":
            resolve_backend(self.backend)
        if self.backend == "fenix_imr" and not self.fenix:
            raise ConfigError("IMR requires Fenix (it lives in rank memory)")
        if not self.kr and self.backend == "fenix_imr":
            raise ConfigError("manual IMR integration is not implemented")

    @property
    def checkpointing(self) -> bool:
        return self.backend != "none"


STRATEGIES = {
    "none": StrategySpec("none", fenix=False, kr=False, backend="none"),
    "veloc": StrategySpec("veloc", fenix=False, kr=False, backend="veloc"),
    "kr_veloc": StrategySpec("kr_veloc", fenix=False, kr=True, backend="veloc"),
    "fenix_veloc": StrategySpec(
        "fenix_veloc", fenix=True, kr=False, backend="veloc"
    ),
    "fenix_kr_veloc": StrategySpec(
        "fenix_kr_veloc", fenix=True, kr=True, backend="veloc"
    ),
    "fenix_kr_imr": StrategySpec(
        "fenix_kr_imr", fenix=True, kr=True, backend="fenix_imr"
    ),
    "fenix_kr_partial": StrategySpec(
        "fenix_kr_partial",
        fenix=True,
        kr=True,
        backend="veloc",
        scope="recovered_only",
    ),
}


def resolve_strategy(name: str) -> StrategySpec:
    """The named :data:`STRATEGIES` row; a typo is a typed error that
    lists the names that exist (every front door and CLI asks here)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from None
