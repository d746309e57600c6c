"""VeloC configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigError

MODE_COLLECTIVE = "collective"
MODE_SINGLE = "single"


@dataclass(frozen=True)
class VeloCConfig:
    """Client/server configuration.

    Attributes:
        mode: ``"collective"`` -- VeloC itself reduces over its
            communicator to find the globally best checkpoint (the default
            VeloC behaviour, incompatible with communicator repair);
            ``"single"`` -- non-collective, the integration layer performs
            the reduction (the mode the paper adds to Kokkos Resilience).
        ckpt_name: logical checkpoint-set name.
        flush_to_pfs: whether the server flushes scratch to persistent
            storage (disabling gives a scratch-only configuration for
            tests).  Which persistent tier the flush targets -- PFS
            directly, or burst buffer with background drain -- is a
            deployment property of the :class:`~repro.veloc.server.VeloCService`.
        keep_versions: how many versions to retain per tier (older ones
            are garbage-collected after a successful flush).
        incremental: copy-on-write incremental snapshots -- only chunks
            the view reports dirty are copied (and charged) per version;
            clean chunks are shared with the previous version.  ``False``
            restores the original full-copy data path, byte- and
            cost-identical to the pre-incremental implementation.
        dedup: always ``False``: a flush moves every dirty byte, as the
            paper's VeloC does; there is no content addressing.
    """

    mode: str = MODE_COLLECTIVE
    ckpt_name: str = "ckpt"
    flush_to_pfs: bool = True
    keep_versions: int = 2
    incremental: bool = True
    dedup: bool = False  # read by benchmarks/e2e/probes.py until ROADMAP item 9

    def __post_init__(self) -> None:
        if self.mode not in (MODE_COLLECTIVE, MODE_SINGLE):
            raise ConfigError(f"unknown VeloC mode {self.mode!r}")
        if self.keep_versions < 1:
            raise ConfigError("keep_versions must be >= 1")
        if self.dedup:
            raise ConfigError("VeloC has no content dedup: dedup must be False")

    @property
    def collective(self) -> bool:
        return self.mode == MODE_COLLECTIVE
