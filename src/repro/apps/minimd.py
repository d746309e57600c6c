"""MiniMD: Sandia's molecular-dynamics mini-app, at reproduction scale.

The paper's second application (Section VI-A): Lennard-Jones molecular
dynamics with velocity-Verlet integration, used "to demonstrate the ease
with which developers can use these combined strategies" and to expose
three differently-bound execution phases (Figure 6):

- **Force Compute** -- almost entirely compute-bound (LJ pair forces);
- **Neighboring** -- neighbor-list rebuilds, mostly local compute;
- **Communicator** -- ghost-atom exchange every step, communication-bound.

Real physics: a small all-pairs LJ system per rank with 1-D slab
decomposition, periodic in x/y, ghost exchange in z.  Deterministic given
the seed, so recovery correctness is checked bit-for-bit against a
failure-free run.  Modelled scale: ``modeled_atoms_per_rank`` drives
compute cost, ghost-exchange bytes, and checkpoint bytes.

The view inventory (:meth:`MiniMDState.build_views`) reproduces the
*census structure* of the paper's Figure 7: 61 view objects of which 39
hold distinct checkpointable buffers (one -- positions -- dominating the
memory), 3 are declared aliases (the integrator's swap buffers), and 19
are duplicate captures that Kokkos Resilience detects by buffer identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

import numpy as np

from repro.core.context import Context
from repro.fenix.roles import Role
from repro.kokkos import KokkosRuntime, View
from repro.mpi.handle import CommHandle
from repro.sim.engine import Event
from repro.util.errors import ConfigError

#: flops charged per atom-neighbor interaction (LJ force kernel)
FLOPS_PER_PAIR = 23.0
#: modelled average neighbors per atom at LJ liquid density
AVG_NEIGHBORS = 38.0
#: phase labels (Figure 6 legend)
PHASE_FORCE = "force_compute"
PHASE_NEIGH = "neighboring"
PHASE_COMM = "communicator"


@dataclass(frozen=True)
class MiniMDConfig:
    """MiniMD problem description.

    ``problem_size`` is the paper's lattice edge (100..400); the modelled
    atom count is ``4 * size^3 / n_ranks`` (4 atoms per fcc cell), while
    the *real* simulated system keeps ``real_atoms_per_rank`` atoms.
    """

    real_atoms_per_rank: int = 48
    problem_size: int = 100
    n_ranks_for_model: int = 8
    n_steps: int = 60
    dt: float = 0.005
    cutoff: float = 2.5
    density: float = 0.8442
    neigh_every: int = 20
    temperature: float = 1.44
    compute_jitter: float = 0.0
    seed: int = 12345
    #: extra compute per modelled step (see HeatdisConfig.work_multiplier)
    work_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.real_atoms_per_rank < 8:
            raise ConfigError("need at least 8 atoms per rank")
        if self.n_steps < 1 or self.neigh_every < 1:
            raise ConfigError("bad step configuration")

    @property
    def modeled_atoms_per_rank(self) -> float:
        return 4.0 * self.problem_size**3 / self.n_ranks_for_model

    @property
    def modeled_position_bytes(self) -> float:
        """x/y/z float64 per atom."""
        return self.modeled_atoms_per_rank * 3 * 8.0

    @property
    def modeled_ghost_bytes(self) -> float:
        """Bytes exchanged per border per step: the skin layer of a slab.

        Slab surface fraction ~ (cutoff / slab_depth); approximated as a
        constant 8% boundary layer of the modelled positions.
        """
        return 0.08 * self.modeled_position_bytes

    @property
    def checkpoint_bytes(self) -> float:
        """Positions + velocities."""
        return 2.0 * self.modeled_position_bytes

    def force_work(self) -> float:
        return (
            self.modeled_atoms_per_rank * AVG_NEIGHBORS * FLOPS_PER_PAIR
            * self.work_multiplier
        )

    def neighbor_work(self) -> float:
        # binning + distance checks: ~5x cheaper than one force sweep
        return self.force_work() / 5.0

    def integrate_work(self) -> float:
        return self.modeled_atoms_per_rank * 12.0 * self.work_multiplier


class MiniMDState:
    """Per-rank particle data as a Kokkos view inventory.

    The physically meaningful views are ``x``/``v``/``f`` (positions,
    velocities, forces) plus the integrator swap buffers; the remaining
    small parameter/statistics views exist exactly as in real MiniMD
    (type arrays, bin counts, thermo accumulators, ...) and give the
    Figure-7 census its long tail.
    """

    def __init__(self, runtime: KokkosRuntime, cfg: MiniMDConfig, comm_rank: int,
                 comm_size: int) -> None:
        self.runtime = runtime
        self.cfg = cfg
        self.comm_rank = comm_rank
        self.comm_size = comm_size
        n = cfg.real_atoms_per_rank
        # slab geometry: periodic box, rank owns a z-slab
        volume = n * comm_size / cfg.density
        self.box_xy = float(volume ** (1.0 / 3.0))
        self.box_z = self.box_xy  # global z extent
        self.slab_lo = self.box_z * comm_rank / comm_size
        self.slab_hi = self.box_z * (comm_rank + 1) / comm_size
        #: box extents per axis, as a row for ``(n, 3)`` positions and as a
        #: column for the force kernel's ``(3, n, m)`` pair separations
        self.box = np.array([self.box_xy, self.box_xy, self.box_z])
        self.box_col = self.box.reshape(3, 1, 1)
        self.views: Dict[str, View] = {}
        self.checkpoint_views: List[View] = []
        self.build_views()
        self.initialize_atoms()

    # -- view inventory (Figure 7 structure) --------------------------------

    def build_views(self) -> None:
        cfg = self.cfg
        rt = self.runtime
        n = cfg.real_atoms_per_rank
        pos_bytes = cfg.modeled_position_bytes

        def v(label, shape, modeled):
            view = rt.view(f"minimd.{label}", shape=shape, modeled_nbytes=modeled)
            self.views[label] = view
            return view

        # the dominant view: positions (the paper: "a single view contains
        # the majority of the data")
        self.x = v("x", (n, 3), pos_bytes)
        self.v = v("v", (n, 3), pos_bytes * 0.45)
        self.f = v("f", (n, 3), pos_bytes * 0.45)
        # integrator / exchange swap buffers -> declared aliases (3)
        self.xhold = v("xhold", (n, 3), pos_bytes)
        self.vhold = v("vhold", (n, 3), pos_bytes * 0.45)
        self.fhold = v("fhold", (n, 3), pos_bytes * 0.45)
        rt.declare_alias("minimd.xhold", "minimd.x")
        rt.declare_alias("minimd.vhold", "minimd.v")
        rt.declare_alias("minimd.fhold", "minimd.f")
        # 35 small checkpointed views: types, masses, bins, thermo, config.
        # Together with x/v/f and progress this makes 39 checkpointed views
        # -- the count the paper reports for MiniMD.
        small_labels = (
            ["type", "mass", "q", "image"]
            + [f"bin_count_{i}" for i in range(8)]
            + [f"thermo_{name}" for name in
               ("temp", "press", "pe", "ke", "etot", "virial")]
            + [f"param_{i}" for i in range(9)]
            + [f"stat_{i}" for i in range(8)]
        )
        small_bytes = pos_bytes * 0.002
        for label in small_labels:
            v(label, (max(2, n // 8),), small_bytes)
        self.progress = v("progress", (4,), 32.0)
        # 19 duplicate captures: view objects over buffers already being
        # checkpointed, as the compiler copies views into nested lambdas in
        # real MiniMD ("views which are used across multiple sources").
        dup_sources = [self.x] * 9 + [self.v] * 5 + [self.f] * 5
        self.duplicates = []
        for i, src in enumerate(dup_sources):
            dup = src.subview(slice(None), label=f"minimd.capture_{i}")
            dup.modeled_nbytes = src.modeled_nbytes
            self.duplicates.append(dup)
        # the checkpointed set the app hands to the resilience layer
        self.checkpoint_views = (
            [self.x, self.v, self.f]
            + [self.views[l] for l in small_labels]
            + [self.progress]
        )

    def all_views(self) -> List[View]:
        """Every view object: 42 named (x/v/f, 3 aliases, 35 small,
        progress) + 19 duplicate captures = 61, the paper's census total."""
        return list(self.views.values()) + list(self.duplicates)

    # -- physics -----------------------------------------------------------------

    def initialize_atoms(self) -> None:
        cfg = self.cfg
        n = cfg.real_atoms_per_rank
        rng = np.random.default_rng(cfg.seed + 1009 * self.comm_rank)
        # jittered lattice inside the slab with near-isotropic spacing
        # (nz is scaled to the slab height so atoms never start overlapped)
        slab_h = self.slab_hi - self.slab_lo
        nz = max(1, int(round((n * slab_h**2 / self.box_xy**2) ** (1.0 / 3.0))))
        nxy = int(np.ceil(np.sqrt(n / nz)))
        grid = np.stack(
            np.meshgrid(
                np.arange(nxy), np.arange(nxy), np.arange(nz), indexing="ij"
            ),
            axis=-1,
        ).reshape(-1, 3)[:n]
        spacing_xy = self.box_xy / nxy
        spacing_z = slab_h / nz
        min_spacing = min(spacing_xy, spacing_z)
        pos = np.empty((n, 3))
        pos[:, 0] = (grid[:, 0] + 0.5) * spacing_xy
        pos[:, 1] = (grid[:, 1] + 0.5) * spacing_xy
        pos[:, 2] = self.slab_lo + (grid[:, 2] + 0.5) * spacing_z
        pos += rng.normal(0.0, 0.04 * min_spacing, size=pos.shape)
        self.x.data[:] = pos
        vel = rng.normal(0.0, np.sqrt(cfg.temperature), size=(n, 3))
        vel -= vel.mean(axis=0)  # zero net momentum per rank
        self.v.data[:] = vel
        self.f.data[:] = 0.0
        self.progress.data[:] = 0.0
        self.ghosts = np.empty((0, 3))
        self.neighbor_stamp = -1

    def reinitialize(self) -> None:
        self.initialize_atoms()

    def wrap_positions(self) -> None:
        """Wrap owned positions back into the global periodic box on all
        three axes.  Atoms do not migrate between slabs in this reduced
        model (exchange is modelled in cost, not in ownership), so an atom
        that drifts out of its slab stays with its rank."""
        x = self.x.data
        np.mod(x, self.box, out=x)

    def compute_forces(self) -> float:
        """All-pairs Lennard-Jones forces on the owned atoms from the owned
        atoms and the ghosts; returns this rank's share of the potential
        energy (every pair term halved, the other half is the partner's).

        Minimum image on all three axes, ghosts at their true positions:
        each ``(owned, other)`` pair interacts through its nearest periodic
        image only, which is why ``ghosts`` must hold every neighbour atom
        once (:func:`exchange_ghosts` de-duplicates the 2-rank ring).  What
        the reduced model leaves out: only the two *adjacent* slabs
        contribute ghosts, although ``cutoff`` spans several slabs at 8
        ranks, and nothing stops ``cutoff`` exceeding half the box at 2.

        Component-major: ``delta`` is ``(3, n, m)``, so every ufunc's inner
        loop runs over the ``m`` partners, not over the three components.
        """
        x = self.x.data
        n = x.shape[0]
        own = np.ascontiguousarray(x.T)
        others = np.concatenate((own, self.ghosts.T), axis=1)
        delta = own[:, :, None] - others[:, None, :]
        image = delta / self.box_col
        np.rint(image, out=image)
        image *= self.box_col
        delta -= image
        np.multiply(delta, delta, out=image)
        r2 = image[0] + image[1]
        r2 += image[2]
        np.fill_diagonal(r2[:, :n], np.inf)  # no self-interaction
        inv_r2 = 1.0 / r2
        inv_r2[r2 >= self.cfg.cutoff**2] = 0.0
        inv_r6 = inv_r2 * inv_r2 * inv_r2
        inv_r12 = inv_r6 * inv_r6
        well = inv_r12 - inv_r6
        # LJ: F = 24 eps (2 (s/r)^12 - (s/r)^6) / r^2 * dr
        coef = (well + inv_r12) * inv_r2
        coef *= 24.0
        self.f.data[:] = np.einsum("kij,ij->ik", delta, coef)
        # U = 4 eps ((s/r)^12 - (s/r)^6), halved per pair
        return 2.0 * float(well.sum())

    def border_atoms(self) -> np.ndarray:
        """Atoms within ``cutoff`` of the slab faces (sent to neighbours)."""
        x = self.x.data
        near_lo = x[:, 2] - self.slab_lo < self.cfg.cutoff
        near_hi = self.slab_hi - x[:, 2] < self.cfg.cutoff
        return x[near_lo | near_hi]

    def kinetic_energy(self) -> float:
        return 0.5 * float(np.sum(self.v.data**2))

    def momentum(self) -> np.ndarray:
        return self.v.data.sum(axis=0)

    def thermo(self, pe: float) -> Dict[str, float]:
        """MiniMD-style thermodynamic observables for the local slab.

        Temperature from equipartition (kB = 1, unit mass), instantaneous
        pressure from the virial theorem with the pair virial approximated
        by ``sum(f . x)`` over owned atoms.
        """
        n = self.x.data.shape[0]
        ke = self.kinetic_energy()
        temperature = 2.0 * ke / (3.0 * n)
        volume = self.box_xy * self.box_xy * (self.slab_hi - self.slab_lo)
        virial = float(np.einsum("ij,ij->", self.f.data, self.x.data))
        pressure = (n * temperature + virial / 3.0) / volume
        observables = {
            "temperature": temperature,
            "pressure": pressure,
            "pe": pe,
            "ke": ke,
            "etot": pe + ke,
        }
        # mirror real MiniMD: thermo results land in the stat views the
        # checkpoint covers
        view_names = {
            "temperature": "thermo_temp",
            "pressure": "thermo_press",
            "pe": "thermo_pe",
            "ke": "thermo_ke",
            "etot": "thermo_etot",
        }
        for name, label in view_names.items():
            view = self.views.get(label)
            if view is not None and view.data.size > 0:
                view.data.flat[0] = observables[name]
        return observables


def exchange_ghosts(
    h: CommHandle, state: MiniMDState, cfg: MiniMDConfig
) -> Generator[Event, Any, None]:
    """Ghost-atom exchange with both z-neighbours (periodic ring), charged
    at the modelled border size (the "Communicator" phase).

    Both faces are always exchanged -- that is the modelled communication
    -- but on a 2-rank ring ``up`` and ``down`` are the same neighbour, so
    its border atoms are kept once: the force kernel takes the minimum
    image of every ghost and would otherwise count each cross-slab pair
    twice."""
    if h.size == 1:
        state.ghosts = np.empty((0, 3))
        return
    border = state.border_atoms()
    nbytes = cfg.modeled_ghost_bytes
    up = (h.rank + 1) % h.size
    down = (h.rank - 1) % h.size
    from_down = yield from h.sendrecv(
        border, dest=up, source=down, sendtag=21, nbytes=nbytes
    )
    from_up = yield from h.sendrecv(
        border, dest=down, source=up, sendtag=22, nbytes=nbytes
    )
    state.ghosts = (
        from_down if up == down else np.concatenate((from_down, from_up))
    )


def minimd_step(
    h: CommHandle, state: MiniMDState, cfg: MiniMDConfig, step: int
) -> Generator[Event, Any, float]:
    """One velocity-Verlet step with the paper's three phases; returns the
    step's potential energy."""
    ctx = h.ctx
    account = ctx.account
    dt = cfg.dt
    # first half-kick + drift (integrate: folded into the force phase)
    with account.label(PHASE_FORCE):
        state.v.data += 0.5 * dt * state.f.data
        state.x.data += dt * state.v.data
        state.wrap_positions()
        yield from ctx.compute(
            work=cfg.integrate_work(), jitter=cfg.compute_jitter
        )
    # communication phase: ghosts every step
    with account.label(PHASE_COMM):
        yield from exchange_ghosts(h, state, cfg)
    # neighboring phase: rebuild on schedule
    if step % cfg.neigh_every == 0:
        with account.label(PHASE_NEIGH):
            yield from ctx.compute(
                work=cfg.neighbor_work(), jitter=cfg.compute_jitter
            )
            state.neighbor_stamp = step
    # force phase
    with account.label(PHASE_FORCE):
        pe = state.compute_forces()
        yield from ctx.compute(work=cfg.force_work(), jitter=cfg.compute_jitter)
        state.v.data += 0.5 * dt * state.f.data
    return pe


def make_minimd_main(
    cfg: MiniMDConfig,
    make_kr: Any,
    failure_plan: Any = None,
    results: Optional[Dict[int, Any]] = None,
    tracker: Any = None,
):
    """Build the resilient MiniMD main (same Figure-4 pattern as Heatdis).

    The checkpoint region wraps the whole step; the context discovers the
    checkpointable views through the explicitly subscribed checkpoint set
    plus whatever the step closure captures (the duplicates), reproducing
    the Figure-7 census.
    """

    def main(role: Role, h: CommHandle) -> Generator[Event, Any, Any]:
        ctx = h.ctx
        persistent = ctx.user.setdefault("minimd", {})
        state: Optional[MiniMDState] = persistent.get("state")
        kr: Optional[Context] = persistent.get("kr")
        if state is None or role is Role.RECOVERED:
            runtime = KokkosRuntime()
            state = MiniMDState(runtime, cfg, h.rank, h.size)
            persistent["state"] = state
            kr = None
        if kr is None:
            kr = make_kr(h)
            kr.subscribe(state.checkpoint_views)
            persistent["kr"] = kr
            kr.set_role(role)
        elif role is Role.SURVIVOR:
            kr.reset(h, role)
        else:
            kr.set_role(role)

        latest = yield from kr.latest_version()
        if latest < 0 and role is not Role.INITIAL:
            state.reinitialize()
        start = max(0, latest)

        pe = 0.0
        for step in range(start, cfg.n_steps):
            if failure_plan is not None:
                failure_plan.check(ctx.rank, step)
            captured_dups = state.duplicates  # the Figure-7 "skipped" views

            def region(step=step):
                nonlocal pe
                pe = yield from minimd_step(h, state, cfg, step)
                state.progress[0] = float(step)
                state.progress[1] = pe
                _ = captured_dups  # captured, as the compiler does

            # NOTE: MiniMD's phase labels override the recompute label, so
            # re-executed work appears as extra time inside the compute
            # phases -- exactly how Figure 6 presents it.
            with ctx.iteration(step, tracker, h.rank):
                yield from kr.checkpoint("minimd", step, region)
        outcome = {
            "rank": h.rank,
            "steps": cfg.n_steps,
            "x": state.x.data.copy(),
            "v": state.v.data.copy(),
            "pe": pe,
            "ke": state.kinetic_energy(),
            "kr": kr,
            "state": state,
        }
        if results is not None:
            results[h.rank] = outcome
        return outcome

    return main
