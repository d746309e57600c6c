"""Benchmark applications: Heatdis and MiniMD.

Both applications follow the guide's split between correctness and cost:
the numerics run for real on laptop-scale numpy arrays (vectorized, in
place), while *modelled* sizes -- bytes per node, atoms per rank -- drive
every simulated cost (compute time, message bytes, checkpoint bytes), so a
"1 GB/node on 64 nodes" experiment finishes in seconds yet exercises every
code path the paper's testbed did.

:data:`APPS` is the registry the harness runs from: one :class:`AppSpec`
row per application.  Adding an application is adding a row -- the front
door (:func:`repro.harness.run_job`), sweep cells, the run cache, the
campaign ledger and the run CLIs all look the name up here.
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.apps.heatdis import (
    HeatdisConfig,
    HeatdisState,
    heatdis_reference,
    make_heatdis_main,
)
from repro.apps.heatdis2d import (
    Heatdis2DConfig,
    Heatdis2DState,
    heatdis2d_reference,
    make_heatdis2d_main,
)
from repro.apps.heatdis_elastic import (
    gather_elastic,
    make_elastic_heatdis_main,
    partition_rows,
)
from repro.apps.heatdis_manual import make_manual_heatdis_main
from repro.apps.minimd import (
    MiniMDConfig,
    MiniMDState,
    make_minimd_main,
)
from repro.core import KRConfig, every_nth, make_context, never
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class AppSpec:
    """What the harness needs to know to run one application."""

    #: the application's configuration dataclass
    config: type
    #: name of the config field holding the iteration / step count
    steps_field: str
    #: integrated only through Kokkos Resilience (no hand-written
    #: checkpoint management to run the manual strategies with)
    kr_only: bool
    #: ``(cfg, strategy, ckpt_interval, runner, imr, plan, results,
    #: tracker) -> main(role, handle)``, called once per job attempt
    build_main: Callable[..., Callable]


def _kr_factory(strategy: Any, ckpt_interval: int, runner: Any,
                imr: Any) -> Callable:
    """Build the make_kr callable for one attempt."""
    env = runner.env
    if strategy.checkpointing:
        config = KRConfig(
            backend=strategy.backend,
            filter=every_nth(ckpt_interval),
            recovery_scope=strategy.scope,
            veloc_incremental=env.veloc_incremental,
        )
    else:
        config = KRConfig(backend="stdfile", filter=never,
                          veloc_incremental=env.veloc_incremental)

    def make_kr(handle):
        return make_context(
            handle, config, runner.cluster, veloc_service=runner.service,
            imr_store=imr,
        )

    return make_kr


def _kr_app(make_main: Callable) -> Callable:
    """``build_main`` of an application integrated through KR alone."""

    def build_main(cfg, strategy, ckpt_interval, runner, imr, plan, results,
                   tracker):
        make_kr = _kr_factory(strategy, ckpt_interval, runner, imr)
        return make_main(cfg, make_kr, failure_plan=plan, results=results,
                         tracker=tracker)

    return build_main


def _heatdis_main(cfg, strategy, ckpt_interval, runner, imr, plan, results,
                  tracker):
    if strategy.kr or not strategy.checkpointing:
        return make_heatdis_main(
            cfg,
            _kr_factory(strategy, ckpt_interval, runner, imr),
            failure_plan=plan,
            partial_rollback=(strategy.scope == "recovered_only"),
            results=results,
            tracker=tracker,
        )
    # manual integrations (VeloC alone / Fenix+VeloC without KR)
    return make_manual_heatdis_main(
        cfg,
        runner.cluster,
        runner.service,
        ckpt_interval,
        use_fenix=strategy.fenix,
        failure_plan=plan,
        results=results,
        tracker=tracker,
        incremental=runner.env.veloc_incremental,
    )


APPS: Dict[str, AppSpec] = {
    "heatdis": AppSpec(HeatdisConfig, "n_iters", False, _heatdis_main),
    "heatdis2d": AppSpec(Heatdis2DConfig, "n_iters", True,
                         _kr_app(make_heatdis2d_main)),
    "minimd": AppSpec(MiniMDConfig, "n_steps", True,
                      _kr_app(make_minimd_main)),
}



def resolve_app(name: str) -> AppSpec:
    """The named :data:`APPS` row; a typo is a typed error that lists the
    names that exist."""
    try:
        return APPS[name]
    except KeyError:
        raise ConfigError(
            f"unknown app {name!r}; known: {sorted(APPS)}"
        ) from None


__all__ = [
    "APPS",
    "AppSpec",
    "resolve_app",
    "HeatdisConfig",
    "HeatdisState",
    "heatdis_reference",
    "make_heatdis_main",
    "Heatdis2DConfig",
    "Heatdis2DState",
    "heatdis2d_reference",
    "make_heatdis2d_main",
    "make_manual_heatdis_main",
    "make_elastic_heatdis_main",
    "gather_elastic",
    "partition_rows",
    "MiniMDConfig",
    "MiniMDState",
    "make_minimd_main",
]
