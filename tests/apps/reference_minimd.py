"""The MiniMD force oracle: the atom-major Lennard-Jones kernel.

This is ``MiniMDState.compute_forces`` as it stood before the kernel went
component-major, body verbatim: ``delta`` laid out ``(n, m, 3)`` so every
ufunc's inner loop is three long, one ``np.round`` per axis, ``einsum``
for both reductions, ``**3`` through the generic ``pow``, and a second
masked pass for the potential energy.  Same arithmetic per pair, another
summation order: the real kernel must agree with it to rounding (forces
and energy at 1e-12 relative), never bit for bit.

It takes the state as ``self`` so a test can also install it as the
method (``monkeypatch.setattr(MiniMDState, "compute_forces", ...)``) and
run a whole job on the old numerics.
"""

import numpy as np


def reference_compute_forces(self) -> float:
    cfg = self.cfg
    x = self.x.data
    others = np.concatenate([x, self.ghosts]) if len(self.ghosts) else x
    delta = x[:, None, :] - others[None, :, :]
    # minimum image in periodic x/y
    for axis, box in ((0, self.box_xy), (1, self.box_xy), (2, self.box_z)):
        d = delta[:, :, axis]
        d -= box * np.round(d / box)
    r2 = np.einsum("ijk,ijk->ij", delta, delta)
    n = x.shape[0]
    np.fill_diagonal(r2[:, :n], np.inf)
    mask = r2 < cfg.cutoff**2
    r2 = np.where(mask, r2, np.inf)
    inv_r2 = 1.0 / r2
    inv_r6 = inv_r2**3
    # LJ: F = 24 eps (2 (s/r)^12 - (s/r)^6) / r^2 * dr
    coef = 24.0 * (2.0 * inv_r6**2 - inv_r6) * inv_r2
    force = np.einsum("ij,ijk->ik", coef, delta)
    self.f.data[:] = force
    pe = float(np.sum(np.where(mask, 4.0 * (inv_r6**2 - inv_r6), 0.0))) / 2.0
    return pe
