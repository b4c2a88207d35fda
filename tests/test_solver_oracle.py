"""Reference oracle for the solver loops, and the projector work they do.

The three reference loops below are the straightforward versions of the
solvers: every trace entry re-projects its iterate and every extrapolated
point is projected directly, so FISTA and PDHG spend 3 forward projections
per iteration and L2 spends 2.  The shipped solvers project each kept
iterate once and derive the extrapolated point's residual by linearity from
the last two (FISTA's y, PDHG's xbar), so FISTA and PDHG spend 1 forward
and 1 adjoint projection per iteration; the adjoint goes through the
operator's cached transpose.

L2 does no extrapolation and must agree with its reference bit for bit:
iterate, discrepancy trace, final objective (data term 1/2 r . r of the
returned iterate), iteration count and stop reason.  FISTA and PDHG must
match the iteration count and stop reason exactly, the iterate within TOL
of max|x_ref|, and every discrepancy entry and the final objective within
TOL relative.  The PDHG reference takes the same
balanced steps and primal-dual residual stop, with the residuals built
from direct projections of K = (A, grad).

The oracle scans also check what the balanced steps are for: the stopped
PDHG iterate is nearer a long run's than the old equal-step iterate.
"""

from dataclasses import asdict

import numpy as np
import pytest

from tcrtomo.geometry import (LinearOperator, ScanGeometry, angle_schedule,
                              operator_for_angles)
from tcrtomo.phantoms import generate_dataset
from tcrtomo.solvers import (PDHG_TOL, SolveReport, div2d, grad2d,
                             l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr,
                             prox_shifted_l1)
from test_solvers import without_stop

# ------------------------------------------------------ reference loops


def _discrepancy(op, x, psi):
    return float(np.linalg.norm((op.forward(x) - psi).ravel()))


def ref_l2(op, psi, prior, alpha, x0=None, max_iter=19):
    psi = np.asarray(psi, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    tau = 1.0 / (1.01 * op.norm_ata())
    x = (np.zeros(op.in_shape) if x0 is None
         else np.array(x0, dtype=np.float64, copy=True))
    report = SolveReport(stop_reason="max_iter")
    d = _discrepancy(op, x, psi)
    report.discrepancies.append(d)
    for _ in range(max_iter):
        grad = op.adjoint(op.forward(x) - psi)
        if alpha > 0:
            grad = grad + alpha * (x - prior)
        x_new = x - tau * grad
        d_new = _discrepancy(op, x_new, psi)
        if d_new > d:
            report.stop_reason = "discrepancy_increase"
            break
        x = x_new
        d = d_new
        report.discrepancies.append(d)
        report.iterations += 1
    r = (op.forward(x) - psi).ravel()
    report.objective = 0.5 * float(r @ r)
    if alpha > 0:
        report.objective += 0.5 * alpha * float(np.sum((x - prior) ** 2))
    return x, report


def ref_fista(op, psi, prior, alpha, x0=None, max_iter=200):
    psi = np.asarray(psi, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    step = 1.0 / (1.01 * op.norm_ata())
    lam = alpha * step
    x = (np.zeros(op.in_shape) if x0 is None
         else np.array(x0, dtype=np.float64, copy=True))

    def objective(z):
        r = 0.5 * float(np.sum((op.forward(z) - psi) ** 2))
        return r + alpha * float(np.sum(np.abs(z - prior)))

    report = SolveReport(stop_reason="max_iter")
    report.discrepancies.append(_discrepancy(op, x, psi))
    x_prev = x
    y = x
    h = 1.0
    for _ in range(max_iter):
        grad = op.adjoint(op.forward(y) - psi)
        x_new = prox_shifted_l1(y - step * grad, lam, prior)
        h_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * h * h))
        y = x_new + ((h - 1.0) / h_new) * (x_new - x_prev)
        x_prev = x_new
        x = x_new
        h = h_new
        report.discrepancies.append(_discrepancy(op, x, psi))
        report.iterations += 1
    report.objective = objective(x)
    return x, report


def _pdhg_steps(op, beta):
    """(tau, sigma) = (c, 1/c) * 0.99/||K||, c = ||grad||/||A|| when beta > 0."""
    norm_a = np.sqrt(1.01 * op.norm_ata())
    if beta == 0:
        return 0.99 / norm_a, 0.99 / norm_a
    norm_k = np.sqrt(norm_a ** 2 + 8.0)
    c = np.sqrt(8.0) / norm_a
    return c * 0.99 / norm_k, 0.99 / (c * norm_k)


def ref_pdhg(op, psi, prior, alpha, beta, x0=None, max_iter=400,
             steps=_pdhg_steps, tol=PDHG_TOL):
    """PDHG with projections of xbar and a direct grad xbar.

    It stops when both primal-dual residuals fall below tol; steps gives
    (tau, sigma).  The TV block is left out of K when beta = 0.
    """
    psi = np.asarray(psi, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    tau, sigma = steps(op, beta)
    x = (np.zeros(op.in_shape) if x0 is None
         else np.array(x0, dtype=np.float64, copy=True))
    xbar = x.copy()
    y1 = np.zeros(op.out_shape)
    y2r = np.zeros(op.in_shape)
    y2c = np.zeros(op.in_shape)
    tv = beta > 0

    def objective(z):
        r = 0.5 * float(np.sum((op.forward(z) - psi) ** 2))
        if tv:
            gr, gc = grad2d(z)
            r += beta * float(np.sum(np.abs(gr)) + np.sum(np.abs(gc)))
        r += alpha * float(np.sum(np.abs(z - prior)))
        return r

    def k(z):
        """K z as one flat vector: (A z, grad z), or A z alone at beta = 0."""
        parts = [op.forward(z).ravel()]
        if tv:
            parts += [g.ravel() for g in grad2d(z)]
        return np.concatenate(parts)

    report = SolveReport(stop_reason="max_iter")
    report.discrepancies.append(_discrepancy(op, x, psi))
    for _ in range(max_iter):
        y_old = np.concatenate([y1.ravel()] + ([y2r.ravel(), y2c.ravel()]
                                               if tv else []))
        y1 = (y1 + sigma * (op.forward(xbar) - psi)) / (1.0 + sigma)
        kty = op.adjoint(y1)
        if tv:
            gr, gc = grad2d(xbar)
            y2r = np.clip(y2r + sigma * gr, -beta, beta)
            y2c = np.clip(y2c + sigma * gc, -beta, beta)
            kty = kty - div2d(y2r, y2c)
        y_new = np.concatenate([y1.ravel()] + ([y2r.ravel(), y2c.ravel()]
                                               if tv else []))
        x_new = prox_shifted_l1(x - tau * kty, tau * alpha, prior)
        primal = np.linalg.norm(x - x_new) / tau
        dual = np.linalg.norm((y_old - y_new) / sigma + k(xbar) - k(x_new))
        converged = (primal <= tol * np.linalg.norm(kty) and dual <= tol * (
            np.linalg.norm(k(x_new)) + np.linalg.norm(psi)))
        xbar = 2.0 * x_new - x
        x = x_new
        report.discrepancies.append(_discrepancy(op, x, psi))
        report.iterations += 1
        if converged:
            report.stop_reason = "converged"
            break
    report.objective = objective(x)
    return x, report


# ---------------------------------------------------------------- scans

SCANS = {
    "desk": ScanGeometry(image_size=32, n_steps=8, n_offsets=47),
    "paper64": ScanGeometry(image_size=64, n_steps=10, n_offsets=100),
}


@pytest.fixture(scope="module", params=sorted(SCANS))
def scan(request):
    """(op, psi, prior) of a sparse step: noisy data, previous frame as prior."""
    geom = SCANS[request.param]
    ds = generate_dataset(geom, 1, seed=5, noise_level=0.02)
    t = 3
    op = operator_for_angles(angle_schedule(geom, t), geom.offsets,
                             geom.image_size)
    return op, ds.sinograms[0].frames[t], ds.gt[0][t - 1]


# the derived residuals differ from direct projections in the last bits
TOL = 1e-12


def _close(got, want, tol):
    """Equal when tol is 0; otherwise within tol as the module states."""
    x, rep = got
    x_ref, rep_ref = want
    assert x.dtype == x_ref.dtype
    if tol == 0:
        assert np.array_equal(x, x_ref)
        assert asdict(rep) == asdict(rep_ref)
        return
    assert (rep.iterations, rep.stop_reason) == (rep_ref.iterations,
                                                 rep_ref.stop_reason)
    assert np.max(np.abs(x - x_ref)) <= tol * np.max(np.abs(x_ref))
    a, b = np.array(rep.discrepancies), np.array(rep_ref.discrepancies)
    assert a.shape == b.shape and b.size > 0
    assert np.all(np.abs(a - b) <= tol * np.abs(b))
    assert abs(rep.objective - rep_ref.objective) <= tol * abs(
        rep_ref.objective)


# (label, shipped solver, reference, positional weights, keyword args);
# L2 cases compare bitwise, FISTA and PDHG at TOL
CASES = [
    ("l2-alpha0.1", l2_tcr, ref_l2, (0.1,), {"x0": "prior"}),
    ("l2-alpha10", l2_tcr, ref_l2, (10.0,), {"max_iter": 60}),
    ("landweber", l2_tcr, ref_l2, (0.0,), {}),
    # alpha 0.1 would pin these two to the prior; 1e-3 lets most pixels move
    ("fista", l1_tcr_fista, ref_fista, (1e-3,), {"x0": "prior"}),
    ("pdhg", l1_tv_tcr_pdhg, ref_pdhg, (1e-3, 0.01), {"x0": "prior"}),
    ("pdhg-tv-init", l1_tv_tcr_pdhg, ref_pdhg, (0.0, 0.01), {}),
]


def _run(solver, scan, weights, kw):
    op, psi, prior = scan
    kw = {k: (prior if v == "prior" else v) for k, v in kw.items()}
    return solver(op, psi, prior, *weights, **kw)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_solvers_match_reference_bitwise(scan, case):
    # bitwise for L2; FISTA and PDHG, which extrapolate, at TOL
    _, solver, reference, weights, kw = case
    tol = 0 if solver is l2_tcr else TOL
    _close(_run(solver, scan, weights, kw),
           _run(reference, scan, weights, kw), tol)


def test_oracle_covers_both_l2_stop_reasons(scan):
    reasons = {_run(solver, scan, weights, kw)[1].stop_reason
               for _, solver, _, weights, kw in CASES if solver is l2_tcr}
    assert reasons == {"max_iter", "discrepancy_increase"}


# ------------------------------------------------- distance to the minimiser

def _old_steps(op, beta):
    """The steps before the balanced ones: tau = sigma = 0.99 / ||K||."""
    tau = 0.99 / np.sqrt(1.01 * op.norm_ata() + 8.0)
    return tau, tau


@pytest.mark.parametrize("alpha", [0.01, 0.03])
def test_pdhg_stops_nearer_the_minimiser(scan, alpha, monkeypatch):
    op, psi, prior = scan
    args = (op, psi, prior, alpha, 0.01)
    x, rep = l1_tv_tcr_pdhg(*args, x0=prior)
    x_star, _ = without_stop(monkeypatch, l1_tv_tcr_pdhg, *args, x0=prior,
                             max_iter=8000)
    # tol 0 stops only on an exact float fixed point, where the iterate
    # is the 400-iteration one
    x_old, _ = ref_pdhg(*args, x0=prior, steps=_old_steps, tol=0.0)
    assert rep.stop_reason == "converged" and rep.iterations < 400
    scale = np.linalg.norm(x_star)
    dist = np.linalg.norm(x - x_star) / scale
    dist_old = np.linalg.norm(x_old - x_star) / scale
    if dist_old == 0:
        # at alpha 0.03 the old steps end on the long run's fixed point
        # exactly; the stopped iterate is within 1e-3 of it
        assert dist <= 1e-3
    else:
        assert dist < dist_old


# ------------------------------------------------------ projector work

class CountingOperator(LinearOperator):
    """Wraps an operator and counts its forward and adjoint calls."""

    def __init__(self, inner):
        self.inner = inner
        self.in_shape = inner.in_shape
        self.out_shape = inner.out_shape
        self.forwards = self.adjoints = 0

    def forward(self, x):
        self.forwards += 1
        return self.inner.forward(x)

    def adjoint(self, y):
        self.adjoints += 1
        return self.inner.adjoint(y)

    def norm_ata(self):
        return self.inner.norm_ata()


@pytest.mark.parametrize("solver,weights,per_iter", [
    (l1_tcr_fista, (1e-3,), (1, 1)),
    (l1_tv_tcr_pdhg, (1e-3, 0.01), (1, 1)),
])
def test_projections_per_iteration(scan, solver, weights, per_iter):
    op, psi, prior = scan
    counter = CountingOperator(op)
    n = 25
    _, rep = solver(counter, psi, prior, *weights, x0=prior, max_iter=n)
    assert rep.iterations == n
    # one extra forward projection for the starting iterate's traces
    assert (counter.forwards, counter.adjoints) == (
        1 + per_iter[0] * n, per_iter[1] * n)


def test_l2_projects_once_per_iteration(scan):
    op, psi, prior = scan
    for alpha, n in ((0.0, 19), (10.0, 60)):
        counter = CountingOperator(op)
        _, rep = l2_tcr(counter, psi, prior, alpha, max_iter=n)
        # a step rejected by the discrepancy rule is still computed
        steps = rep.iterations + (rep.stop_reason == "discrepancy_increase")
        assert (counter.forwards, counter.adjoints) == (1 + steps, steps)
