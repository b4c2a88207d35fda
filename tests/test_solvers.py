"""Variational solver oracles: closed forms, descent, cross-checks."""

import math

import numpy as np
import pytest

from tcrtomo import solvers
from tcrtomo.geometry import (LinearOperator, MatrixOperator, ScanGeometry,
                              angle_schedule, operator_for_angles)
from tcrtomo.phantoms import disc_image
from tcrtomo.solvers import (PDHG_TOL, div2d, grad2d, l1_tcr_fista,
                             l1_tv_tcr_pdhg, l2_tcr, prox_shifted_l1,
                             soft_threshold)


def scalar_op(a=1.0):
    return MatrixOperator(np.array([[a]]))


def small_radon(size=32, n_angles=6, n_offsets=40, seed=0):
    angles = np.arange(n_angles) * np.pi / n_angles + 0.05
    offsets = np.linspace(-1, 1, n_offsets)
    return operator_for_angles(angles, offsets, size)


def without_stop(monkeypatch, solver, *args, **kw):
    """The solver's full-budget run: _iterate with its stop reasons dropped.

    The stop test still sees every kept iterate, as PDHG's final residuals
    need, but never ends the run.
    """
    iterate = solvers._iterate

    def ignoring(stop):
        return lambda *s: stop(*s) and None

    with monkeypatch.context() as m:
        m.setattr(solvers, "_iterate",
                  lambda *a, stop, **k: iterate(*a, stop=ignoring(stop), **k))
        return solver(*args, **kw)


def assert_early_exit_of(stopped, full):
    """stopped equals full bitwise: same x, its traces a prefix of full's,
    and full's traces constant from the stopping point on."""
    (x, rep), (x_full, rep_full) = stopped, full
    assert np.array_equal(x, x_full)
    n = rep.iterations + 1
    trace, full_trace = rep.discrepancies, rep_full.discrepancies
    assert trace == full_trace[:n]
    assert set(full_trace[n - 1:]) == {trace[-1]}
    assert rep.objective == rep_full.objective
    assert rep.alpha_crit == rep_full.alpha_crit


def objective_trace(solver, *args, n, **kw):
    """The objectives of iterates 1..n of one solve, from prefix solves.

    A solve with max_iter = k runs the full-budget solve's first k steps,
    so it ends on its iterate k (or on the iterate it stopped at).  Each
    prefix's discrepancy trace is checked against the n-step solve's.
    """
    _, full = solver(*args, max_iter=n, **kw)
    trace = []
    for k in range(1, n + 1):
        _, rep = solver(*args, max_iter=k, **kw)
        assert rep.discrepancies == full.discrepancies[:len(rep.discrepancies)]
        trace.append(rep.objective)
    assert trace[-1] == full.objective
    return np.array(trace)


def assert_window_means_fall(trace, w=20):
    """The means of the trace's consecutive full windows of w entries do
    not increase, and there are at least two of them."""
    means = [trace[i:i + w].mean() for i in range(0, len(trace) - w + 1, w)]
    assert len(means) >= 2
    assert all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1))


def random_image(size=32, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.uniform(size=(size, size))
    h = 2.0 / size
    c = -1.0 + (np.arange(size) + 0.5) * h
    xx, yy = np.meshgrid(c, c, indexing="xy")
    img[(xx ** 2 + yy ** 2) > 1.0] = 0.0
    return img


# ------------------------------------------------------------- prox maps

def test_soft_threshold_values():
    assert soft_threshold(2.0, 0.5) == pytest.approx(1.5, abs=1e-12)
    assert soft_threshold(-2.0, 0.5) == pytest.approx(-1.5, abs=1e-12)
    assert soft_threshold(0.3, 0.5) == 0.0
    assert soft_threshold(-0.3, 0.5) == 0.0


def test_soft_threshold_is_prox_of_l1():
    # brute-force 1-D oracle: argmin_x lam|x| + 0.5 (x - v)^2
    grid = np.linspace(-4, 4, 160001)
    for v in [2.0, -1.3, 0.2, 0.0]:
        for lam in [0.0, 0.5, 1.7]:
            best = grid[np.argmin(lam * np.abs(grid) + 0.5 * (grid - v) ** 2)]
            assert soft_threshold(v, lam) == pytest.approx(best, abs=1e-4)


def test_soft_threshold_validation():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


def test_prox_shifted_l1_shift_identity():
    v = np.array([2.0, -0.5, 0.9])
    a = np.array([1.0, 1.0, 1.0])
    got = prox_shifted_l1(v, 0.5, a)
    expected = a + soft_threshold(v - a, 0.5)
    assert np.array_equal(got, expected)


def test_prox_shifted_l1_zero_anchor_is_soft_threshold():
    v = np.array([2.0, -2.0, 0.1])
    assert np.array_equal(prox_shifted_l1(v, 0.5, np.zeros(3)),
                          soft_threshold(v, 0.5))


def test_prox_shifted_l1_zero_lambda_exact_identity():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(50)
    a = rng.standard_normal(50)
    assert np.array_equal(prox_shifted_l1(v, 0.0, a), v)


def test_prox_shifted_l1_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        prox_shifted_l1(np.zeros(3), 0.5, np.zeros(4))


def test_prox_shifted_l1_brute_force_oracle():
    # argmin_x lam|x - a| + 0.5(x - v)^2 on a fine grid
    grid = np.linspace(-4, 4, 160001)
    for v, a, lam in [(2.0, 1.0, 0.5), (-1.0, 0.5, 0.7), (0.4, 0.5, 0.05)]:
        best = grid[np.argmin(lam * np.abs(grid - a) + 0.5 * (grid - v) ** 2)]
        assert prox_shifted_l1(np.array([v]), lam, np.array([a]))[0] == \
            pytest.approx(best, abs=1e-4)


# ------------------------------------------------------------------ l2_tcr

def test_l2_identity_stub_fixed_point():
    # A = I, psi = 2, prior = 0, alpha = 1 -> x* = (psi + alpha prior)/(1+alpha) = 1
    op = scalar_op()
    x, rep = l2_tcr(op, np.array([2.0]), np.array([0.0]), alpha=1.0,
                    x0=np.array([0.0]), tau=0.5)
    assert abs(x[0] - 1.0) < 1e-3
    assert rep.iterations <= 19


def test_l2_general_scalar_fixed_point():
    # closed form x* = (a psi + alpha prior) / (a^2 + alpha) for A = a I
    op = scalar_op(2.0)
    psi, prior, alpha = np.array([3.0]), np.array([0.5]), 0.8
    x, _ = l2_tcr(op, psi, prior, alpha, x0=prior.copy(),
                  tau=1.0 / (4.0 + alpha), max_iter=500)
    assert x[0] == pytest.approx((2.0 * 3.0 + 0.8 * 0.5) / (4.0 + 0.8), abs=1e-6)


def test_l2_objective_descent_and_report():
    op = small_radon()
    img = random_image(seed=1)
    psi = op.forward(img)
    prior = random_image(seed=2)
    x, rep = l2_tcr(op, psi, prior, alpha=0.1, x0=prior)

    def objective(z):
        return (0.5 * np.sum((op.forward(z) - psi) ** 2)
                + 0.05 * np.sum((z - prior) ** 2))

    assert len(rep.discrepancies) == rep.iterations + 1
    assert rep.stop_reason in ("max_iter", "discrepancy_increase")
    # kept discrepancies never increase
    assert np.all(np.diff(rep.discrepancies) <= 1e-12)


def test_l2_landweber_alpha_zero_early_stop():
    # noisy data: discrepancy rule must kick in at or before max_iter
    op = small_radon()
    img = random_image(seed=3)
    rng = np.random.default_rng(4)
    psi = op.forward(img) + 0.05 * rng.standard_normal(op.out_shape)
    x, rep = l2_tcr(op, psi, np.zeros(op.in_shape), alpha=0.0)
    assert rep.iterations <= 19
    assert np.all(np.diff(rep.discrepancies) <= 0)


def test_l2_validation():
    op = scalar_op()
    with pytest.raises(ValueError):
        l2_tcr(op, np.array([1.0]), np.array([0.0]), alpha=-1.0)
    with pytest.raises(ValueError):
        l2_tcr(op, np.array([1.0]), np.array([0.0]), alpha=0.0,
               x0=np.zeros(3))


# ------------------------------------------------------------------- FISTA

def test_fista_momentum_sequence():
    # h1 = 1, h2 = (1 + sqrt 5)/2; exposed indirectly: 2 iterations on an
    # exactly solvable problem still land on the fixed point
    h1 = 1.0
    h2 = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * h1 * h1))
    assert h2 == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-15)


def test_fista_scalar_zero_prior(monkeypatch):
    # A = I, psi = 2, prior = 0, alpha = 0.5 -> x* = soft(2, 0.5) = 1.5
    args = (scalar_op(), np.array([2.0]), np.array([0.0]), 0.5)
    x, rep = l1_tcr_fista(*args, max_iter=200)
    assert x[0] == pytest.approx(1.5, abs=1e-6)
    # x moves for a few iterations, then stays on its float fixed point
    full = without_stop(monkeypatch, l1_tcr_fista, *args, max_iter=200)
    assert rep.stop_reason == "stationary"
    assert 1 < rep.iterations < full[1].iterations == 200
    assert_early_exit_of((x, rep), full)
    # |A^T (A x0 - psi)| = 2 at x0 = 0: the data pull beats alpha, x moves
    assert rep.alpha_crit == 2.0 > 0.5


def test_fista_scalar_shifted_prior():
    # prior = 1: argmin 0.5(x-2)^2 + 0.5|x-1| -> x = 1.5
    op = scalar_op()
    x, _ = l1_tcr_fista(op, np.array([2.0]), np.array([1.0]), alpha=0.5)
    assert x[0] == pytest.approx(1.5, abs=1e-6)


def test_fista_strong_prior_pins_solution():
    # large alpha: solution sticks to the prior where data pull is weaker
    op = scalar_op()
    x, _ = l1_tcr_fista(op, np.array([2.0]), np.array([1.8]), alpha=5.0)
    assert x[0] == pytest.approx(1.8, abs=1e-6)


def test_fista_stationary_exit_is_the_full_budget_run(monkeypatch):
    # demo 02's frozen case: at alpha 0.1 the data pull is weaker than alpha
    # everywhere, so x never leaves the prior
    geom = ScanGeometry(32, 8, 20, 3, 47)
    op = operator_for_angles(angle_schedule(geom, 3), geom.offsets, 32)
    psi = op.forward(disc_image(32, radius=0.4, center=(0.15, 0.0)))
    prior = disc_image(32, radius=0.4, center=(0.05, 0.05))
    args = (op, psi, prior, 0.1)
    stopped = l1_tcr_fista(*args, x0=prior, max_iter=200)
    full = without_stop(monkeypatch, l1_tcr_fista, *args, x0=prior,
                        max_iter=200)
    assert (stopped[1].stop_reason, stopped[1].iterations) == ("stationary",
                                                                1)
    assert (full[1].stop_reason, full[1].iterations) == ("max_iter", 200)
    assert np.array_equal(stopped[0], prior)
    assert_early_exit_of(stopped, full)
    # lambda_max at the prior certifies what the exit found
    assert stopped[1].alpha_crit <= 0.1


def test_fista_objective_tail_monotone():
    op = small_radon()
    img = random_image(seed=5)
    psi = op.forward(img)
    prior = img + 0.1 * np.random.default_rng(6).standard_normal(img.shape)
    # at alpha 0.01 the run moves for its whole budget (0.05 stops at 11)
    obj = objective_trace(l1_tcr_fista, op, psi, prior, alpha=0.01, n=100)
    # FISTA is not monotone step to step; compare 20-iteration window means
    assert_window_means_fall(obj)


# -------------------------------------------------------------- grad / div

def test_grad2d_constant_is_zero():
    gr, gc = grad2d(np.full((6, 7), 3.2))
    assert np.all(gr == 0) and np.all(gc == 0)


def test_grad2d_ramp():
    x = np.arange(5)[None, :] * np.ones((4, 1))
    gr, gc = grad2d(x)
    assert np.all(gr == 0)
    assert np.all(gc[:, :-1] == 1) and np.all(gc[:, -1] == 0)


def test_div2d_exact_negative_adjoint():
    rng = np.random.default_rng(7)
    for shape in [(8, 8), (5, 9)]:
        x = rng.standard_normal(shape)
        pr = rng.standard_normal(shape)
        pc = rng.standard_normal(shape)
        gr, gc = grad2d(x)
        lhs = np.sum(gr * pr) + np.sum(gc * pc)
        rhs = -np.sum(x * div2d(pr, pc))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grad_operator_norm_bound():
    # power iteration on K = (Id, grad): squared norm <= 9
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 16))
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(200):
        gr, gc = grad2d(x)
        y = x - div2d(gr, gc)  # (Id + grad^T grad) x
        lam = float(np.vdot(x, y))
        x = y / np.linalg.norm(y)
    assert lam <= 9.0 + 1e-9


# -------------------------------------------------------------------- PDHG

def test_pdhg_beta_zero_matches_fista_objective():
    op = small_radon()
    img = random_image(seed=9)
    psi = op.forward(img)
    prior = img + 0.05 * np.random.default_rng(10).standard_normal(img.shape)
    alpha = 0.1
    x_f, rep_f = l1_tcr_fista(op, psi, prior, alpha, max_iter=400)
    x_p, rep_p = l1_tv_tcr_pdhg(op, psi, prior, alpha, beta=0.0, max_iter=800)

    def objective(z):
        return (0.5 * np.sum((op.forward(z) - psi) ** 2)
                + alpha * np.sum(np.abs(z - prior)))

    best = min(objective(x_f), objective(x_p))
    assert abs(objective(x_p) - objective(x_f)) <= 1e-3 * max(1.0, best)


def test_pdhg_tv_flattens_noise():
    op = small_radon()
    img = np.zeros((32, 32))
    img[10:22, 12:20] = 0.8
    rng = np.random.default_rng(11)
    psi = op.forward(img) + 0.02 * rng.standard_normal(op.out_shape)
    prior = np.zeros_like(img)
    x_no_tv, _ = l1_tv_tcr_pdhg(op, psi, prior, alpha=0.0, beta=0.0,
                                max_iter=300)
    x_tv, _ = l1_tv_tcr_pdhg(op, psi, prior, alpha=0.0, beta=0.05,
                             max_iter=300)
    gr, gc = grad2d(x_tv)
    gr0, gc0 = grad2d(x_no_tv)
    tv = np.sum(np.abs(gr)) + np.sum(np.abs(gc))
    tv0 = np.sum(np.abs(gr0)) + np.sum(np.abs(gc0))
    assert tv < tv0


def test_pdhg_objective_window_monotone():
    op = small_radon()
    img = random_image(seed=12)
    psi = op.forward(img)
    prior = np.zeros_like(img)
    # the run converges after 153 iterations
    obj = objective_trace(l1_tv_tcr_pdhg, op, psi, prior, alpha=0.02,
                          beta=0.02, n=160)
    assert_window_means_fall(obj)


def test_pdhg_keeps_its_final_residuals():
    op = small_radon()
    img = random_image(seed=12)
    psi = op.forward(img)
    prior = np.zeros_like(img)
    _, rep = l1_tv_tcr_pdhg(op, psi, prior, alpha=0.02, beta=0.02)
    assert rep.stop_reason == "converged"
    assert max(rep.primal_residual, rep.dual_residual) <= PDHG_TOL
    # one iteration short of converging, the stop test had not passed
    _, cut = l1_tv_tcr_pdhg(op, psi, prior, alpha=0.02, beta=0.02,
                            max_iter=rep.iterations - 1)
    assert cut.stop_reason == "max_iter"
    assert max(cut.primal_residual, cut.dual_residual) > PDHG_TOL
    assert min(cut.primal_residual, cut.dual_residual) > 0
    # exact data at x0 = prior: K^T y and both residuals are zero
    _, exact = l1_tv_tcr_pdhg(op, op.forward(img), img, alpha=0.02, beta=0.0,
                              x0=img)
    assert (exact.stop_reason, exact.iterations) == ("converged", 1)
    assert exact.primal_residual == exact.dual_residual == 0.0
    for solver, weights in ((l2_tcr, (0.1,)), (l1_tcr_fista, (0.02,))):
        _, other = solver(op, psi, prior, *weights, max_iter=5)
        assert math.isnan(other.primal_residual)
        assert math.isnan(other.dual_residual)


def test_pdhg_validation():
    op = small_radon()
    with pytest.raises(ValueError):
        l1_tv_tcr_pdhg(op, np.zeros(op.out_shape), np.zeros(op.in_shape),
                       alpha=-0.1, beta=0.0)
    with pytest.raises(ValueError):
        l1_tv_tcr_pdhg(op, np.zeros(op.out_shape), np.zeros(op.in_shape),
                       alpha=0.0, beta=-0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weights_rejected(bad):
    """A NaN weight passes `w < 0`; each solver must still refuse it."""
    op = scalar_op()
    psi, prior = np.array([1.0]), np.array([0.0])
    with pytest.raises(ValueError, match="alpha"):
        l2_tcr(op, psi, prior, alpha=bad)
    with pytest.raises(ValueError, match="alpha"):
        l1_tcr_fista(op, psi, prior, alpha=bad)
    op2 = MatrixOperator(np.eye(4), in_shape=(2, 2))
    psi2, prior2 = np.ones(4), np.zeros((2, 2))
    with pytest.raises(ValueError, match="alpha"):
        l1_tv_tcr_pdhg(op2, psi2, prior2, alpha=bad, beta=0.0)
    with pytest.raises(ValueError, match="beta"):
        l1_tv_tcr_pdhg(op2, psi2, prior2, alpha=0.0, beta=bad)


class InfAfter(LinearOperator):
    """Finite operator whose forward returns inf from call n_finite on."""

    def __init__(self, inner, n_finite):
        self.inner, self.n_finite = inner, n_finite
        self.in_shape, self.out_shape = inner.in_shape, inner.out_shape

    def forward(self, x):
        self.n_finite -= 1
        if self.n_finite < 0:
            return np.full(self.out_shape, np.inf)
        return self.inner.forward(x)

    def adjoint(self, y):
        return self.inner.adjoint(y)

    def norm_ata(self):
        return self.inner.norm_ata()


@pytest.mark.parametrize("solver,weights", [
    (l1_tcr_fista, (0.01,)), (l1_tv_tcr_pdhg, (0.01, 0.01))])
def test_non_finite_result_raises(solver, weights):
    """Finite inputs, but the projections blow up part way through."""
    op = small_radon()
    img = random_image()
    psi = op.forward(img)
    with (pytest.raises(ValueError, match="non-finite iterate after 30 "),
          np.errstate(invalid="ignore")):
        solver(InfAfter(op, 10), psi, img, *weights, max_iter=30)


def test_l2_keeps_the_last_finite_iterate():
    # an infinite discrepancy is an increase, so the run stops before it
    op = small_radon()
    psi = op.forward(random_image())
    x, rep = l2_tcr(InfAfter(op, 5), psi, np.zeros(op.in_shape), 0.0)
    assert (rep.iterations, rep.stop_reason) == (4, "discrepancy_increase")
    assert np.isfinite(x).all()
