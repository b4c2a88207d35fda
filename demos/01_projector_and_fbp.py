"""Parallel-beam projector basics: chord lengths, adjointness, FBP.

The forward projector integrates an image along lines parameterized by
angle and signed offset in [-1, 1]. For the indicator of the unit disc
the integral has a closed form, the chord length 2*sqrt(1 - s^2), which
makes a handy first sanity check before trusting the operator anywhere
else.
"""

import numpy as np

from tcrtomo.geometry import (ScanGeometry, angle_schedule, fbp,
                              operator_for_angles)
from tcrtomo.metrics import psnr
from tcrtomo.phantoms import disc_image

size = 64
img = disc_image(size, radius=1.0)
offsets = np.linspace(-1.0, 1.0, 95)

print("chord lengths of the unit disc, angle 0.35 rad")
sino = operator_for_angles([0.35], offsets, size).forward(img)[0]
keep = np.abs(offsets) <= 0.8
expected = 2.0 * np.sqrt(1.0 - offsets[keep] ** 2)
err = np.max(np.abs(sino[keep] - expected))
print(f"  max deviation {err:.4f} (pixel width {2.0 / size:.4f})")

# the adjoint is exact by construction: same footprint weights, summed
# the other way. The dot-product identity <Ax, y> = <x, A^T y> holds to
# rounding error, which is what makes gradient-based solvers trustworthy.
geom = ScanGeometry(size, 10, 20, 3, 95)
op = operator_for_angles(angle_schedule(geom, 0), geom.offsets, size)
rng = np.random.default_rng(0)
x = rng.standard_normal(op.in_shape)
y = rng.standard_normal(op.out_shape)
lhs = float(np.sum(op.forward(x) * y))
rhs = float(np.sum(x * op.adjoint(y)))
print(f"adjoint identity: <Ax,y>={lhs:.6f}  <x,A'y>={rhs:.6f}")

# filtered backprojection needs many angles; with 3 it falls apart,
# which is the entire reason the sequence prior exists
phantom = disc_image(size, radius=0.35, center=(0.2, -0.1), value=0.9)
for n_angles in (60, 20, 3):
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    data = operator_for_angles(angles, offsets, size).forward(phantom)
    recon = fbp(data, angles, offsets, size)
    print(f"fbp from {n_angles:2d} angles: psnr {psnr(phantom, recon):6.2f} dB")
