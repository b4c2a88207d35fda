"""Bitwise oracle for the solver loops: the shipped solvers against the
allocating loops they replaced.

The reference loops below are the solvers as they were before the
iteration went in place: every step allocates its results, the
discrepancy is np.linalg.norm, the data term sums r ** 2 and the shrink
is sign(v) * max(|v| - lam, 0).  The shipped loops compute the same
arithmetic in place on solver-owned buffers, so they must agree bit for
bit on the iterate, the discrepancy trace, the iteration count, the stop
reason and alpha_crit.  The objective's data term is now r . r, a dot
product instead of a pairwise sum, so the final objectives agree within
OBJ_TOL relative.

The cases cover both oracle scans of test_solver_oracle, each through
its RadonOperator and as a dense MatrixOperator, and every solver at
alpha in {0, 1e-3, 0.1} (PDHG also at beta in {0, 0.01}), starting from
the prior and from zeros.
"""

import math

import numpy as np
import pytest

from tcrtomo.geometry import MatrixOperator
from tcrtomo.solvers import (PDHG_TOL, SolveReport, _prepare, div2d, grad2d,
                             l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr)
from test_solver_oracle import scan  # noqa: F401  (module-scoped fixture)

# the data term's dot product rounds differently from a pairwise sum
OBJ_TOL = 1e-12

# ------------------------------------------------- the loops as they were


def old_soft_threshold(v, lam):
    v = np.asarray(v)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def old_prox_shifted_l1(v, lam, anchor):
    if lam == 0:
        return v.copy()
    return anchor + old_soft_threshold(v - anchor, lam)


def old_sq(v):
    return float(np.vdot(v, v))


def old_iterate(op, psi, x, max_iter, step, l1=None, tv=None,
                monotone=False, stop=None):
    report = SolveReport()

    def gradient(x):
        return None if tv is None else grad2d(x)

    def keep(x, r, g, d):
        report.discrepancies.append(d)
        if l1 is not None or tv is not None:
            obj = 0.5 * float(np.sum(r ** 2))
            if tv is not None:
                obj += tv * float(np.sum(np.abs(g)))
            if l1 is not None:
                alpha, prior = l1
                obj += alpha * float(np.sum(np.abs(x - prior)))
            report.objective = obj

    r = op.forward(x) - psi
    g = gradient(x)
    d = float(np.linalg.norm(r.ravel()))
    keep(x, r, g, d)
    for _ in range(max_iter):
        x_new = step(x, r, g)
        r_new = op.forward(x_new) - psi
        d_new = float(np.linalg.norm(r_new.ravel()))
        if monotone and d_new > d:
            report.stop_reason = "discrepancy_increase"
            break
        g_new = gradient(x_new)
        reason = stop(x_new, r_new, g_new, d_new != d) if stop else None
        x, r, g, d = x_new, r_new, g_new, d_new
        keep(x, r, g, d)
        report.iterations += 1
        if reason:
            report.stop_reason = reason
            break
    assert np.isfinite(d) and np.isfinite(x).all()
    return x, report


def old_l2_tcr(op, psi, prior, alpha, x0=None, max_iter=19):
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha)
    tau = 1.0 / (1.01 * op.norm_ata())

    def step(x, r, _):
        grad = op.adjoint(r)
        if alpha > 0:
            grad = grad + alpha * (x - prior)
        return x - tau * grad

    x, report = old_iterate(op, psi, x, max_iter, step, monotone=True)
    d = report.discrepancies[-1]
    report.objective = 0.5 * d * d
    if alpha > 0:
        report.objective += 0.5 * alpha * float(np.sum((x - prior) ** 2))
    return x, report


def old_fista(op, psi, prior, alpha, x0=None, max_iter=200):
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha)
    tau = 1.0 / (1.01 * op.norm_ata())
    y = x
    h = 1.0
    m = r_prev = None
    last = None
    alpha_crit = None

    def step(x, r, _):
        nonlocal y, h, m, r_prev, last, alpha_crit
        r_y = r if r_prev is None else r + m * (r - r_prev)
        grad = op.adjoint(r_y)
        if r_prev is None:
            alpha_crit = float(np.max(np.abs(grad)))
        x_new = old_prox_shifted_l1(y - tau * grad, tau * alpha, prior)
        last = (x, y, r_y)
        h_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * h * h))
        m = (h - 1.0) / h_new
        y = x_new + m * (x_new - x)
        h = h_new
        r_prev = r
        return x_new

    def stop(x_new, r_new, _, moved):
        if moved:
            return None
        x, y_from, r_from = last
        if (np.array_equal(x_new, x) and np.array_equal(y_from, x_new)
                and np.array_equal(r_from, r_new)):
            return "stationary"
        return None

    x, report = old_iterate(op, psi, x, max_iter, step, l1=(alpha, prior),
                            stop=stop)
    report.alpha_crit = alpha_crit
    return x, report


def old_pdhg(op, psi, prior, alpha, beta, x0=None, max_iter=400):
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha,
                             beta=beta)
    norm_a2 = 1.01 * op.norm_ata()
    if beta > 0:
        c, norm_k = np.sqrt(8.0 / norm_a2), np.sqrt(norm_a2 + 8.0)
    else:
        c, norm_k = 1.0, np.sqrt(norm_a2)
    tau, sigma = 0.99 * c / norm_k, 0.99 / (c * norm_k)
    psi_norm = np.sqrt(old_sq(psi))
    y1 = np.zeros(op.out_shape)
    y2 = np.zeros((2,) + tuple(op.in_shape))
    r_prev = g_prev = None
    last = None

    def step(x, r, g):
        nonlocal y1, y2, r_prev, g_prev, last
        y_old = (y1, y2)
        r_bar = r if r_prev is None else 2.0 * r - r_prev
        y1 = (y1 + sigma * r_bar) / (1.0 + sigma)
        kty = op.adjoint(y1)
        g_bar = None
        if g is not None:
            g_bar = g if g_prev is None else 2.0 * g - g_prev
            y2 = np.clip(y2 + sigma * g_bar, -beta, beta)
            kty = kty - div2d(y2[0], y2[1])
        x_new = old_prox_shifted_l1(x - tau * kty, tau * alpha, prior)
        last = (x, kty, r_bar, g_bar, y_old)
        r_prev, g_prev = r, g
        return x_new

    def stop(x_new, r_new, g_new, _):
        x, kty, r_bar, g_bar, (y1_old, y2_old) = last
        if old_sq(x - x_new) > (PDHG_TOL * tau) ** 2 * old_sq(kty):
            return None
        dual = old_sq((y1_old - y1) / sigma + r_bar - r_new)
        kx = old_sq(r_new + psi)
        if g_new is not None:
            dual += old_sq((y2_old - y2) / sigma + g_bar - g_new)
            kx += old_sq(g_new)
        if np.sqrt(dual) <= PDHG_TOL * (np.sqrt(kx) + psi_norm):
            return "converged"
        return None

    return old_iterate(op, psi, x, max_iter, step, l1=(alpha, prior),
                       tv=beta if beta > 0 else None, stop=stop)


# ------------------------------------------------------------- the cases

ALPHAS = (0.0, 1e-3, 0.1)
CASES = ([("l2", (a,)) for a in ALPHAS]
         + [("fista", (a,)) for a in ALPHAS]
         + [("pdhg", (a, b)) for a in ALPHAS for b in (0.0, 0.01)])
SOLVERS = {"l2": (l2_tcr, old_l2_tcr),
           "fista": (l1_tcr_fista, old_fista),
           "pdhg": (l1_tv_tcr_pdhg, old_pdhg)}


def _ids(case):
    name, weights = case
    return name + "-" + "-".join(f"{w:g}" for w in weights)


def assert_same_solve(got, want):
    (x, rep), (x_ref, rep_ref) = got, want
    assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
    assert rep.discrepancies == rep_ref.discrepancies
    assert (rep.iterations, rep.stop_reason) == (rep_ref.iterations,
                                                 rep_ref.stop_reason)
    assert (rep.alpha_crit == rep_ref.alpha_crit
            or math.isnan(rep.alpha_crit) and math.isnan(rep_ref.alpha_crit))
    assert abs(rep.objective - rep_ref.objective) <= OBJ_TOL * abs(
        rep_ref.objective)


@pytest.fixture(scope="module", params=["radon", "matrix"])
def problem(scan, request):
    """The oracle scan through its RadonOperator or as a dense matrix."""
    op, psi, prior = scan
    if request.param == "radon":
        return scan
    return (MatrixOperator(op.matrix.toarray(), in_shape=op.in_shape),
            psi.ravel(), prior)


@pytest.mark.parametrize("start", ["prior", "zeros"])
@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_solvers_equal_old_loops_bitwise(problem, case, start):
    op, psi, prior = problem
    name, weights = case
    x0 = prior if start == "prior" else None
    new, old = SOLVERS[name]
    assert_same_solve(new(op, psi, prior, *weights, x0=x0),
                      old(op, psi, prior, *weights, x0=x0))
