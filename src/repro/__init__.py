"""repro: reproduction of the CLUSTER 2022 hybrid Fenix/Kokkos resilience paper.

This package implements, in pure Python on top of a deterministic
discrete-event cluster simulator, the full layered resilience system the
paper describes:

- :mod:`repro.sim` -- discrete-event engine, cluster/network/filesystem model,
  failure injection (substitute for the paper's 100-node Cray XC40).
- :mod:`repro.mpi` -- simulated MPI with the ULFM fault-tolerance extensions
  (revoke / shrink / agree).
- :mod:`repro.fenix` -- process-resilience layer: spare ranks, in-place
  communicator repair, long-jump recovery, rank roles, IMR data store.
- :mod:`repro.kokkos` -- Kokkos analogue: labelled Views over numpy,
  parallel dispatch, global view registry with alias/duplicate tracking.
- :mod:`repro.veloc` -- VeloC analogue: node-local scratch + asynchronous
  server flush to a contended parallel filesystem, versioned restart.
- :mod:`repro.core` -- the paper's contribution: the Kokkos-Resilience-style
  control-flow layer that glues the three layers together.
- :mod:`repro.apps` -- Heatdis and MiniMD benchmark applications.
- :mod:`repro.harness` -- resilience strategies, job runner, time accounting.
- :mod:`repro.experiments` -- drivers regenerating every figure in the paper.

See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
reproductions of the paper's evaluation.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
