"""Pluggable checkpoint/restart backends for the control-flow layer."""

from typing import Dict, Type

from repro.core.backends.base import Backend, region_id_for
from repro.core.backends.veloc import VeloCBackend
from repro.core.backends.stdfile import StdFileBackend
from repro.core.backends.fenix_imr import FenixIMRBackend
from repro.util.errors import ConfigError

#: the data backends by name -- the one place the names are spelled;
#: configs and strategy rows are validated against it and
#: :func:`~repro.core.context.make_context` builds from it
BACKENDS: Dict[str, Type[Backend]] = {
    "veloc": VeloCBackend,
    "stdfile": StdFileBackend,
    "fenix_imr": FenixIMRBackend,
}


def resolve_backend(name: str) -> Type[Backend]:
    """The named :data:`BACKENDS` row; a typo is a typed error that lists
    the names that exist."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None


__all__ = [
    "Backend",
    "BACKENDS",
    "resolve_backend",
    "region_id_for",
    "VeloCBackend",
    "StdFileBackend",
    "FenixIMRBackend",
]
