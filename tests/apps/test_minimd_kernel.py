"""MiniMD force kernel: differential against the oracle, then physics.

The component-major ``MiniMDState.compute_forces`` does the same
arithmetic per pair as :func:`tests.apps.reference_minimd
.reference_compute_forces` in another summation order, so the two agree
to rounding and not bit for bit: pair separations are bit-identical
(same subtract, same ``rint`` -- ``np.round`` *is* ``rint`` at zero
decimals), squared distances and everything after them may differ in the
last place.  The tolerances below were fixed from the dtype before the
kernel was written: 1e-12 relative, forces additionally against the
largest force in the system (a sum of large opposing terms is only as
good as its terms).

The physics half pins what the old suite never did: the pair law itself,
the cutoff, no self-interaction, Newton's third law, and translation
invariance under the periodic wrap.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps import MiniMDConfig
from repro.apps.minimd import MiniMDState
from repro.kokkos import KokkosRuntime
from tests.apps.reference_minimd import reference_compute_forces

CUTOFF = 2.5
#: eight atoms in a 12.6-wide box: room to park them all out of range
SPARSE = 0.004


def make_state(n=8, rank=0, size=1, density=0.8442, seed=12345):
    cfg = MiniMDConfig(real_atoms_per_rank=n, density=density, seed=seed,
                       cutoff=CUTOFF)
    return MiniMDState(KokkosRuntime(), cfg, rank, size)


def both_kernels(state):
    """(forces, energy) from the real kernel and from the oracle."""
    pe = state.compute_forces()
    forces = state.f.data.copy()
    state.f.data[:] = np.nan
    ref_pe = reference_compute_forces(state)
    return (forces, pe), (state.f.data.copy(), ref_pe)


def assert_kernels_agree(state):
    (forces, pe), (ref_forces, ref_pe) = both_kernels(state)
    scale = np.abs(ref_forces).max()
    np.testing.assert_allclose(forces, ref_forces, rtol=1e-12,
                               atol=1e-12 * scale)
    assert pe == pytest.approx(ref_pe, rel=1e-12, abs=1e-300)


# -- differential ------------------------------------------------------------


@st.composite
def systems(draw):
    """A rank's owned atoms plus ghosts, with the awkward placements.

    ``ghost_mode`` covers no ghosts (the oracle's ``others = x`` branch),
    one, and up to 2n.  ``sparse`` lowers the density until the box is
    wider than two cutoffs, so the pairs planted at exactly +-cutoff are
    not folded to something shorter by the minimum image.
    """
    n = draw(st.integers(8, 40))
    size = draw(st.integers(1, 8))
    rank = draw(st.sampled_from([0, size - 1]))
    sparse = draw(st.booleans())
    state = make_state(n, rank, size, density=0.02 if sparse else 0.8442,
                       seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = state.box
    if draw(st.booleans()):  # uniform instead of the jittered lattice
        state.x.data[:] = rng.random((n, 3)) * box
    ghost_mode = draw(st.sampled_from(["none", "one", "many"]))
    g = {"none": 0, "one": 1,
         "many": draw(st.integers(2, 2 * n))}[ghost_mode]
    ghosts = rng.random((g, 3)) * box
    # atoms on the box faces: one coordinate exactly 0 or exactly the box
    for row in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        axis = int(rng.integers(3))
        state.x.data[row, axis] = draw(st.sampled_from([0.0, box[axis]]))
    for row in draw(st.lists(st.integers(0, max(g - 1, 0)), max_size=4)):
        if g:
            axis = int(rng.integers(3))
            ghosts[row, axis] = draw(st.sampled_from([0.0, box[axis]]))
    # ghosts at exactly +-cutoff and exactly half a box from an owned atom,
    # along one axis (exact in floating point: the owned coordinate is 0)
    for k in range(min(g, draw(st.integers(0, 3)))):
        owner = int(rng.integers(n))
        axis = int(rng.integers(3))
        state.x.data[owner, axis] = 0.0
        ghosts[k] = state.x.data[owner]
        ghosts[k, axis] = draw(st.sampled_from(
            [CUTOFF, box[axis] - CUTOFF, box[axis] / 2]))
        if draw(st.booleans()):  # the same separation with the sign flipped
            state.x.data[owner, axis], ghosts[k, axis] = (
                ghosts[k, axis], 0.0)
    # r = 0 is outside the pair law's domain (both kernels answer NaN):
    # the plantings above can land a ghost on an owned atom's nearest
    # image -- a face atom at the origin, a flipped ghost at 0 -- and
    # such a system says nothing about whether the kernels agree
    sep = state.x.data[:, None, :] - ghosts[None, :, :]
    sep -= box * np.rint(sep / box)
    assume(sep.any(axis=2).all())
    state.ghosts = ghosts
    return state


@settings(max_examples=120, deadline=None)
@given(systems())
def test_component_major_kernel_matches_the_oracle(state):
    assert_kernels_agree(state)


def test_kernels_agree_on_a_real_ring_exchange():
    """The benchmark's shape: 24 owned atoms, both neighbours' 24 as
    ghosts, on the first, a middle and the last rank of an 8-ring."""
    ring = [make_state(24, r, 8) for r in range(8)]
    for rank in (0, 3, 7):
        state = ring[rank]
        state.ghosts = np.concatenate(
            [ring[(rank - 1) % 8].x.data, ring[(rank + 1) % 8].x.data])
        assert_kernels_agree(state)
        assert np.abs(state.f.data).max() > 0


def test_rint_is_round_on_exact_half_box_separations():
    """The kernel wraps with ``np.rint`` where the oracle calls
    ``np.round``: both round half to even, so a pair exactly half a box
    apart picks the same image in both."""
    halves = np.arange(-6, 7) + 0.5
    np.testing.assert_array_equal(np.rint(halves), np.round(halves))
    np.testing.assert_array_equal(np.rint(-halves), np.round(-halves))
    # a dense box (2.1 wide): half a box is well inside the cutoff, so the
    # image a kernel picks for the planted pair decides the sign of a
    # large force
    state = make_state(8)
    ghosts = []
    for axis in range(3):
        # separation -box/2 (owner at 0) and +box/2 (ghost at 0): ties that
        # round-half-away and floor(x + 0.5) resolve differently from rint
        for owner, own_at, ghost_at in ((axis, 0.0, 0.5), (3 + axis, 0.5, 0.0)):
            state.x.data[owner, axis] = own_at * state.box[axis]
            ghost = state.x.data[owner].copy()
            ghost[axis] = ghost_at * state.box[axis]
            ghosts.append(ghost)
    state.ghosts = np.array(ghosts)
    assert_kernels_agree(state)
    with_ghosts = state.f.data.copy()
    state.ghosts = np.empty((0, 3))
    state.compute_forces()
    for axis in range(3):
        for owner in (axis, 3 + axis):
            pull = with_ghosts[owner, axis] - state.f.data[owner, axis]
            assert abs(pull) > 1.0


# -- physics -----------------------------------------------------------------


def spread_out(state, spacing=6.0):
    """Park the owned atoms on a grid wider than the cutoff: no forces."""
    n = state.x.data.shape[0]
    side = int(np.ceil(n ** (1 / 3)))
    assert side * spacing <= state.box.min()
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)[:n]
    state.x.data[:] = (grid + 0.5) * spacing
    state.ghosts = np.empty((0, 3))


def lj_force(r):
    return 24.0 * (2.0 / r**13 - 1.0 / r**7)


def lj_energy(r):
    return 4.0 * (1.0 / r**12 - 1.0 / r**6)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("r", [0.9, 2.0 ** (1 / 6), 1.5, 2.4999])
def test_two_owned_atoms_obey_the_pair_law(axis, r):
    state = make_state(8, density=SPARSE)
    spread_out(state)
    step = np.zeros(3)
    step[axis] = r
    state.x.data[1] = state.x.data[0] + step
    pe = state.compute_forces()
    expected = np.zeros((8, 3))
    # repulsive inside the minimum at 2^(1/6): atom 0 is pushed away from 1
    expected[0, axis] = -lj_force(r)
    expected[1, axis] = lj_force(r)
    np.testing.assert_allclose(state.f.data, expected, rtol=1e-12,
                               atol=1e-12)
    assert pe == pytest.approx(lj_energy(r), rel=1e-12, abs=1e-12)


def test_an_owned_ghost_pair_gets_half_the_energy():
    state = make_state(8, density=SPARSE)
    spread_out(state)
    state.ghosts = state.x.data[:1] + (0.0, 0.0, 1.2)
    pe = state.compute_forces()
    assert state.f.data[0, 2] == pytest.approx(-lj_force(1.2), rel=1e-12)
    assert np.count_nonzero(state.f.data) == 1
    assert pe == pytest.approx(lj_energy(1.2) / 2, rel=1e-12)


@pytest.mark.parametrize("r", [2.5, 2.5001, 4.0])
def test_no_force_at_or_beyond_the_cutoff(r):
    state = make_state(8, density=SPARSE)
    spread_out(state)
    state.x.data[0] = (1.0, 1.0, 1.0)
    state.x.data[1] = (1.0 + r, 1.0, 1.0)
    state.ghosts = np.array([[1.0, 1.0 + r, 1.0]])
    assert state.compute_forces() == 0.0
    assert not state.f.data.any()


def test_the_cutoff_is_measured_to_the_nearest_image():
    """Two atoms a whole box minus 1.1 apart interact at distance 1.1."""
    state = make_state(8, density=SPARSE)
    spread_out(state)
    state.x.data[0] = (0.5, 1.0, 1.0)
    state.x.data[1] = (state.box[0] - 0.6, 1.0, 1.0)
    state.compute_forces()
    # the image of atom 1 sits at -0.6: atom 0 is pushed towards +x
    assert state.f.data[0, 0] == pytest.approx(lj_force(1.1), rel=1e-9)
    assert state.f.data[1, 0] == pytest.approx(-lj_force(1.1), rel=1e-9)


def test_no_self_interaction():
    """An atom alone within the cutoff feels nothing -- in particular not
    itself at distance zero, and not its own periodic image."""
    state = make_state(8, density=SPARSE)
    spread_out(state)
    assert state.compute_forces() == 0.0
    assert not state.f.data.any()
    assert np.all(np.isfinite(state.f.data))


def test_owned_owned_forces_sum_to_zero_without_ghosts():
    state = make_state(40)  # one rank: the whole periodic system
    state.compute_forces()
    forces = state.f.data
    assert np.abs(forces).max() > 1.0
    assert np.abs(forces.sum(axis=0)).max() < 1e-12 * np.abs(forces).max()


def test_translating_the_whole_box_leaves_forces_unchanged():
    state = make_state(24, rank=1, size=3)
    neighbours = [make_state(24, r, 3) for r in (0, 2)]
    state.ghosts = np.concatenate([s.x.data for s in neighbours])
    pe = state.compute_forces()
    forces = state.f.data.copy()
    shift = np.array([0.37, -1.9, 5.3]) * state.box
    state.x.data[:] = state.x.data + shift
    state.wrap_positions()
    state.ghosts = (state.ghosts + shift) % state.box
    moved_pe = state.compute_forces()
    scale = np.abs(forces).max()
    # positions moved by whole boxes lose ~1e-15 of absolute precision, and
    # r^-13 turns that into ~1e-13 of relative force
    np.testing.assert_allclose(state.f.data, forces, rtol=1e-9,
                               atol=1e-9 * scale)
    assert moved_pe == pytest.approx(pe, rel=1e-9)


def test_wrap_positions_is_a_modulo_on_every_axis():
    state = make_state(8)
    box = state.box
    state.x.data[0] = (-0.25, box[1] + 0.5, 2 * box[2] + 0.125)
    state.x.data[1] = (0.0, box[1], 0.5)
    before = state.x.data.copy()
    state.wrap_positions()
    expected = before.copy()
    for axis in range(3):  # the elementwise form it replaced
        expected[:, axis] %= box[axis]
    np.testing.assert_array_equal(state.x.data, expected)
    assert np.all((state.x.data >= 0) & (state.x.data < box))
