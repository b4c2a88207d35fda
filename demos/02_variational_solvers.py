"""One undersampled frame, three coupling terms, same prior.

Every reconstruction in the sequence pipeline solves

    min_x  1/2 ||A x - psi||^2  +  alpha * d(x, prior)  [+ beta * TV(x)]

for a single time step. Here the prior is a deliberately shifted copy of
the truth, so we can watch how the quadratic coupling (Landweber), the
L1 coupling (FISTA) and the L1+TV coupling (PDHG) trade data fidelity
against it.
"""

import numpy as np

from tcrtomo.geometry import ScanGeometry, angle_schedule, operator_for_angles
from tcrtomo.metrics import psnr
from tcrtomo.phantoms import disc_image
from tcrtomo.solvers import l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr

size = 32
geom = ScanGeometry(size, 8, 20, 3, 47)
op = operator_for_angles(angle_schedule(geom, 3), geom.offsets, size)
truth = disc_image(size, radius=0.4, center=(0.15, 0.0), value=1.0)
psi = op.forward(truth)

# prior: the same disc but displaced by a couple of pixels, as a stand-in
# for an imperfect next-frame prediction
prior = disc_image(size, radius=0.4, center=(0.05, 0.05), value=1.0)
print(f"3-angle data, prior psnr {psnr(truth, prior):.2f} dB\n")

x2, rep2 = l2_tcr(op, psi, prior, 0.1, x0=prior)
print(f"quadratic coupling : psnr {psnr(truth, x2):6.2f} dB, "
      f"{rep2.iterations:3d} iters, stop '{rep2.stop_reason}'")

# the l1 coupling has a deadzone: wherever the data pull is weaker than
# alpha, the prior is kept exactly. alpha = 0.1 freezes this prior in
# place; a smaller alpha lets the measurements move it.
frozen, _ = l1_tcr_fista(op, psi, prior, 0.1, x0=prior, max_iter=200)
print(f"l1, alpha 0.1      : psnr {psnr(truth, frozen):6.2f} dB "
      f"(identical to prior: {np.array_equal(frozen, prior)})")

x1, rep1 = l1_tcr_fista(op, psi, prior, 0.01, x0=prior, max_iter=200)
print(f"l1, alpha 0.01     : psnr {psnr(truth, x1):6.2f} dB, "
      f"{rep1.iterations:3d} iters, objective {rep1.objective:.4f}")

xtv, reptv = l1_tv_tcr_pdhg(op, psi, prior, 0.01, 0.005, x0=prior,
                            max_iter=400)
print(f"l1 + tv coupling   : psnr {psnr(truth, xtv):6.2f} dB, "
      f"{reptv.iterations:3d} iters, objective {reptv.objective:.4f}")

# all three must not lose data consistency relative to the prior itself
d_prior = np.linalg.norm(op.forward(prior) - psi)
for name, x in (("l2", x2), ("l1", x1), ("l1tv", xtv)):
    d = np.linalg.norm(op.forward(x) - psi)
    print(f"discrepancy {name:4s}: {d:8.4f}  (prior {d_prior:.4f})")
