"""The paper's contribution: the integrated control-flow resilience layer.

This package is the analogue of Kokkos Resilience *with the paper's
modifications applied* (Section V):

- :func:`make_context` / :class:`Context` -- the checkpoint context,
  including the paper's two extensions: a ``reset`` that accepts a new
  communicator after a Fenix repair, and VeloC always launched in
  non-collective ("single") mode with the global best-version reduction
  performed here instead of inside VeloC;
- :meth:`Context.checkpoint` -- the lambda-wrapping checkpoint region of
  Figure 4: automatically discovers the Kokkos views reachable from the
  function, deduplicates them (Figure 7's "skipped" views), excludes
  declared aliases, and either executes + checkpoints or restores;
- :mod:`repro.core.detect` -- closure-walking view discovery ("data being
  used deep in nested function calls");
- :mod:`repro.core.backends` -- pluggable C/R backends: VeloC
  (asynchronous multi-tier), Fenix IMR (buddy memory), StdFile
  (synchronous PFS write, the reference backend);
- partial-rollback support (Section V-A): recovery scope
  ``"recovered_only"`` restores data only on replacement ranks, letting
  survivors keep their post-checkpoint progress.
"""

from repro.core.config import KRConfig
from repro.core.context import Context, make_context
from repro.core.detect import discover_views
from repro.core.filters import always, every_nth, never
from repro.core.backends import (
    Backend,
    FenixIMRBackend,
    StdFileBackend,
    VeloCBackend,
)

__all__ = [
    "KRConfig",
    "Context",
    "make_context",
    "discover_views",
    "always",
    "every_nth",
    "never",
    "Backend",
    "VeloCBackend",
    "StdFileBackend",
    "FenixIMRBackend",
]
