"""Per-time-step variational solvers with a prediction prior.

Each solver minimizes a data term 1/2 ||A x - psi||^2 plus a penalty that
anchors x to a prior image (the temporal prediction):

    l2_tcr          + alpha/2 ||x - prior||^2      (gradient iteration)
    l1_tcr_fista    + alpha ||x - prior||_1        (FISTA)
    l1_tv_tcr_pdhg  + alpha ||x - prior||_1 + beta ||grad x||_1   (PDHG)

All of them return (solution, SolveReport).  Operators follow the
forward/adjoint protocol of geometry.LinearOperator; images may have any
shape as long as it matches the operator.

All three run one loop, _iterate, which knows only A and psi.  A solver
supplies its preamble (_prepare, step sizes), a step(x, r) -> x_new
closure that holds its own state and, optionally, a stop test.  The loop
projects each kept iterate once: r = A x - psi gives the discrepancy and
the next step's r.  Each trace entry is the value a separate projection
of that iterate would give.  The loop knows no penalty: it sets the
report's objective to the data term 1/2 r . r of the iterate it returns,
and each solver adds its own penalty once, after the loop.  PDHG owns its
TV block: it takes grad x of x0 in its preamble and of each kept iterate
in its stop test, once each.

FISTA and PDHG step from an extrapolated point (FISTA's y, PDHG's xbar),
an affine combination of the last two kept iterates.  Its residual (and
PDHG's grad xbar) follows by linearity from theirs, r + m (r - r_prev) and
2 r - r_prev, so every iteration costs one forward and one adjoint
projection.  The derived residual is rebuilt from two fresh projections
each time, so rounding does not accumulate; it differs from a direct
projection only in the last bits.  The adjoint multiplies by the
operator's cached transpose (see geometry).

An iteration costs about what its two projections cost: besides them, a
FISTA iteration makes about 15 elementwise numpy calls and PDHG about 35,
with no Python-level loop over pixels.  Each step runs in-place ufuncs on
arrays the solve allocated itself; the discrepancy is sqrt(r . r),
bitwise np.linalg.norm(r).  The L1 shrink is soft_threshold's, reached
through prox_shifted_l1.  A solver never writes into an array that
op.forward or op.adjoint returned: the operator protocol does not promise
a fresh array.

Stop reasons: "max_iter" (the budget ran out); "discrepancy_increase"
(l2_tcr's early stop, which drops that step); "stationary" (FISTA's
iterate is a float fixed point, so the full budget would return it
bitwise); "converged" (PDHG's primal-dual residuals are below PDHG_TOL
relative; PDHG balances its primal and dual steps by the block norms of
K = (A, grad), and reports both residuals of its last iteration).  A run
whose final iterate or discrepancy is not finite raises ValueError.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# relative tolerance of PDHG's primal-dual residual stop
PDHG_TOL = 2e-3


@dataclass
class SolveReport:
    """Trace of one solver run.

    discrepancies[i] is ||A x_i - psi|| for the kept iterates x_0..x_n, so
    its length is iterations + 1.  objective is the solver's full objective
    at the returned iterate, its data term 1/2 ||A x_n - psi||^2 plus its
    penalty.  alpha_crit, set by FISTA, is ||A^T (A x0 - psi)||_inf:
    x0 = prior solves the L1 problem exactly when alpha >= alpha_crit (the
    Lasso lambda_max).  primal_residual and dual_residual, set by PDHG, are
    its stop test's two relative residuals at the last iteration: both are
    at most PDHG_TOL exactly when the run stopped as "converged".
    """

    iterations: int = 0
    stop_reason: str = "max_iter"
    discrepancies: list = field(default_factory=list)
    objective: float = float("nan")
    alpha_crit: float = float("nan")
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")


def soft_threshold(v, lam):
    """Proximal map of lam * ||.||_1: sign(v) * max(|v| - lam, 0).

    Computed as v - clip(v, -lam, lam), which equals that form bitwise
    except for the sign of zero: an entry with |v| <= lam gives +0 (the
    sign form gave -0 for negative v).
    """
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    v = np.asarray(v)
    return v - np.minimum(np.maximum(v, -lam), lam)


def prox_shifted_l1(v, lam, anchor):
    """Proximal map of lam * ||x - anchor||_1: shift, shrink, shift back."""
    v = np.asarray(v)
    anchor = np.asarray(anchor)
    if v.shape != anchor.shape:
        raise ValueError(f"shape mismatch: v {v.shape} vs anchor {anchor.shape}")
    if lam == 0:
        # exact identity; keeps alpha = 0 runs bit-identical to prior-free ones
        return v.copy() if isinstance(v, np.ndarray) else v
    return anchor + soft_threshold(v - anchor, lam)


def _prepare(op, psi, prior, x0, max_iter, **weights):
    """Shared solver preamble; returns float64 (psi, prior, x).

    Rejects negative or non-finite weights, max_iter < 1, an x0 of the
    wrong shape and non-finite psi, prior or x0.  x starts as a copy of
    x0, or zeros.
    """
    for name, w in weights.items():
        if not 0 <= w < float("inf"):
            raise ValueError(f"{name} must be finite and >= 0, got {w}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    psi = np.asarray(psi, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    x = (np.zeros(op.in_shape) if x0 is None
         else np.array(x0, dtype=np.float64, copy=True))
    if x.shape != tuple(op.in_shape):
        raise ValueError(f"x0 shape {x.shape} does not match {op.in_shape}")
    for name, v in (("psi", psi), ("prior", prior), ("x0", x)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has non-finite entries")
    return psi, prior, x


def _iterate(op, psi, x, max_iter, step, monotone=False, stop=None):
    """x <- step(x, r), r = A x - psi, max_iter times -> (x, SolveReport).

    Traces ||r|| = sqrt(r . r) of each kept iterate, and sets the report's
    objective to the data term 1/2 r . r of the iterate it returns.
    monotone drops an iterate whose discrepancy would increase and stops
    the run there.  After each kept step, stop(x_new, r_new, moved) may
    return a stop reason; moved is False when the discrepancy did not
    change.  The run then ends on that iterate.  Raises ValueError if the
    returned iterate or its discrepancy is not finite.
    """
    report = SolveReport()
    r = op.forward(x) - psi
    rr = _sq(r)
    d = math.sqrt(rr)
    report.discrepancies.append(d)
    for _ in range(max_iter):
        x_new = step(x, r)
        r_new = op.forward(x_new) - psi
        rr_new = _sq(r_new)
        d_new = math.sqrt(rr_new)
        if monotone and d_new > d:
            report.stop_reason = "discrepancy_increase"
            break
        reason = stop(x_new, r_new, d_new != d) if stop else None
        x, r, rr, d = x_new, r_new, rr_new, d_new
        report.discrepancies.append(d)
        report.iterations += 1
        if reason:
            report.stop_reason = reason
            break
    if not (math.isfinite(d) and np.isfinite(x).all()):
        raise ValueError(f"non-finite iterate after {report.iterations} "
                         f"iterations (discrepancy {d})")
    report.objective = 0.5 * rr
    return x, report


def l2_tcr(op, psi, prior, alpha, x0=None, max_iter=19, tau=None):
    """Gradient iteration on 1/2||Ax - psi||^2 + alpha/2 ||x - prior||^2.

    Step size defaults to 1 / (1.01 * ||A^T A||).  Stops at max_iter or as
    soon as the data discrepancy would increase, returning the last iterate
    on the non-increasing run.  alpha = 0 gives the plain Landweber
    iteration with the early-stopping rule acting as regularization.
    """
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha)
    if tau is None:
        tau = 1.0 / (1.01 * op.norm_ata())

    def step(x, r):
        grad = op.adjoint(r)
        if alpha > 0:
            v = np.subtract(x, prior)
            v *= alpha
            v += grad  # A^T r + alpha (x - prior)
            v *= tau
        else:
            v = np.multiply(grad, tau)
        return np.subtract(x, v, out=v)

    x, report = _iterate(op, psi, x, max_iter, step, monotone=True)
    if alpha > 0:
        report.objective += 0.5 * alpha * float(np.sum((x - prior) ** 2))
    return x, report


def l1_tcr_fista(op, psi, prior, alpha, x0=None, max_iter=200):
    """FISTA on 1/2||Ax - psi||^2 + alpha ||x - prior||_1.

    Fixed iteration budget, step 1 / (1.01 * ||A^T A||), momentum
    h_1 = 1, h_{k+1} = (1 + sqrt(1 + 4 h_k^2)) / 2,
    y_{k+1} = x_k + m_k (x_k - x_{k-1}),  m_k = (h_k - 1)/h_{k+1},
    whose residual A y_{k+1} - psi = r_k + m_k (r_k - r_{k-1}) needs no
    projection of its own.

    Stops early with stop_reason "stationary" once x_k == x_{k-1}, and the
    point x_k was stepped from, y_{k-1} with its derived residual, equals
    (x_k, A x_k - psi), element for element.  Step k + 1 then repeats step
    k's arithmetic exactly, so no later iterate can differ from x_k; the
    result equals the full-budget run's bitwise.  This is the prior itself
    whenever the data pull is weaker than alpha everywhere.

    The report's alpha_crit comes from the first step's adjoint, A^T r at
    y = x0.
    """
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha)
    tau = 1.0 / (1.01 * op.norm_ata())
    y = x
    h = 1.0
    m = r_prev = None  # y = x on the first step, so A y - psi = r
    r_y = np.empty(psi.shape)  # A y - psi from the second step on
    v = np.empty(x.shape)  # the gradient step y - tau A^T r_y
    last = None  # (x_{k-1}, y_{k-1}, A y_{k-1} - psi) of the last step
    alpha_crit = None

    def step(x, r):
        nonlocal y, h, m, r_prev, last, alpha_crit
        if r_prev is None:
            grad = op.adjoint(r)
            alpha_crit = float(np.max(np.abs(grad)))
            last = (x, y, r)
        else:
            np.subtract(r, r_prev, out=r_y)
            np.multiply(r_y, m, out=r_y)
            np.add(r_y, r, out=r_y)
            grad = op.adjoint(r_y)
            last = (x, y, r_y)
        np.multiply(grad, tau, out=v)
        x_new = prox_shifted_l1(np.subtract(y, v, out=v), tau * alpha, prior)
        h_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * h * h))
        m = (h - 1.0) / h_new
        y = np.subtract(x_new, x)
        y *= m
        y += x_new
        h = h_new
        r_prev = r
        return x_new

    def stop(x_new, r_new, moved):
        # an unchanged iterate leaves the discrepancy unchanged, so a moving
        # solve pays one float compare
        if moved:
            return None
        x, y_from, r_from = last
        if (np.array_equal(x_new, x) and np.array_equal(y_from, x_new)
                and np.array_equal(r_from, r_new)):
            return "stationary"
        return None

    x, report = _iterate(op, psi, x, max_iter, step, stop=stop)
    report.objective += alpha * _l1(x - prior)
    report.alpha_crit = alpha_crit
    return x, report


def grad2d(x):
    """Forward differences with replicate (Neumann) boundary: last row/col 0.

    Returns one (2, H, W) array, d_rows stacked on d_cols, so
    `gr, gc = grad2d(x)` unpacks the two components.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"grad2d expects a 2-D array, got shape {x.shape}")
    g = np.zeros((2,) + x.shape)
    np.subtract(x[1:, :], x[:-1, :], out=g[0, :-1, :])
    np.subtract(x[:, 1:], x[:, :-1], out=g[1, :, :-1])
    return g


def div2d(gr, gc):
    """Exact negative adjoint of grad2d: <grad x, p> == -<x, div p>."""
    gr = np.asarray(gr, dtype=np.float64)
    gc = np.asarray(gc, dtype=np.float64)
    if gr.shape != gc.shape or gr.ndim != 2:
        raise ValueError(f"component shape mismatch: {gr.shape} vs {gc.shape}")
    d = np.zeros_like(gr)
    d[:-1, :] += gr[:-1, :]
    d[1:, :] -= gr[:-1, :]
    d[:, :-1] += gc[:, :-1]
    d[:, 1:] -= gc[:, :-1]
    return d


def l1_tv_tcr_pdhg(op, psi, prior, alpha, beta, x0=None, max_iter=400):
    """PDHG on 1/2||Ax - psi||^2 + beta||grad x||_1 + alpha||x - prior||_1.

    The linear map K = (A, grad) is composed into the dual block:
      y1 <- (y1 + sigma (A xbar - psi)) / (1 + sigma)       data dual
      y2 <- clip(y2 + sigma grad xbar, -beta, beta)         TV dual
      x  <- prox_shifted_l1(x - tau K^T y, tau alpha, prior)
      K^T y = A^T y1 - div y2,  xbar = 2 x_new - x
    with tau = c 0.99 / ||K||, sigma = 0.99 / (c ||K||), so tau sigma ||K||^2
    = 0.98 < 1 (Chambolle & Pock 2011).  ||K||^2 <= ||A||^2 + ||grad||^2
    with ||A||^2 <= 1.01 ||A^T A|| and ||grad||^2 <= 8, and the ratio
    c = ||grad|| / ||A|| balances the two blocks.  At beta = 0 there is no
    TV block: ||K|| = ||A|| and c = 1.  A xbar - psi = 2 r_new - r and
    grad xbar = 2 grad x_new - grad x follow by linearity from the kept
    iterates, so an iteration costs one forward and one adjoint
    projection, one grad2d and one div2d.  The solver owns that TV pair:
    it takes grad x0 before the loop and grad x_new of each kept iterate
    in its stop test, and keeps the last kept iterate's residual and
    gradient for the final objective and residuals.

    Stops with stop_reason "converged" once both primal-dual residuals
    (Goldstein, Li & Yuan 2015) are small relative to their terms:
      primal  ||x - x_new|| / (tau ||K^T y||)  <=  PDHG_TOL
      dual    ||(y - y_new) / sigma + K (xbar - x_new)||
                / (||(A x_new, grad x_new)|| + ||psi||)  <=  PDHG_TOL
    else after max_iter iterations ("max_iter").  The report keeps both
    residuals of the last iteration, computed once after the loop.
    """
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha,
                             beta=beta)
    if len(op.in_shape) != 2:
        raise ValueError(f"TV solver needs 2-D images, got shape {op.in_shape}")
    norm_a2 = 1.01 * op.norm_ata()
    if beta > 0:
        c, norm_k = np.sqrt(8.0 / norm_a2), np.sqrt(norm_a2 + 8.0)
    else:
        c, norm_k = 1.0, np.sqrt(norm_a2)
    tau, sigma = 0.99 * c / norm_k, 0.99 / (c * norm_k)
    psi_norm = math.sqrt(_sq(psi))
    y1 = np.zeros(op.out_shape)
    y2 = np.zeros((2,) + tuple(op.in_shape))
    g = grad2d(x) if beta > 0 else None  # grad x of the last kept iterate
    r_kept = None  # A x - psi of the last kept iterate, set by stop
    r_prev = g_prev = None
    last = None  # what the residuals need from the last step

    def step(x, r):
        nonlocal y1, y2, r_prev, g_prev, last
        y_old = (y1, y2)
        r_bar = r if r_prev is None else _extrapolate(r, r_prev)
        y1 = np.multiply(r_bar, sigma)
        y1 += y_old[0]
        y1 /= 1.0 + sigma
        kty = op.adjoint(y1)
        g_bar = None
        if g is not None:
            g_bar = g if g_prev is None else _extrapolate(g, g_prev)
            y2 = np.multiply(g_bar, sigma)
            y2 += y_old[1]
            np.maximum(y2, -beta, out=y2)
            np.minimum(y2, beta, out=y2)
            kty = np.subtract(kty, div2d(y2[0], y2[1]))
        v = np.multiply(kty, tau)
        x_new = prox_shifted_l1(np.subtract(x, v, out=v), tau * alpha, prior)
        last = (x, kty, r_bar, g_bar, y_old)
        r_prev, g_prev = r, g
        return x_new

    def primal_residual(x_new):
        x, kty = last[:2]
        return _ratio(math.sqrt(_sq(x - x_new)) / tau, math.sqrt(_sq(kty)))

    def dual_residual(r_new, g_new):
        _, _, r_bar, g_bar, (y1_old, y2_old) = last
        dual = _sq((y1_old - y1) / sigma + r_bar - r_new)
        kx = _sq(r_new + psi)
        if g_new is not None:
            dual += _sq((y2_old - y2) / sigma + g_bar - g_new)
            kx += _sq(g_new)
        return _ratio(math.sqrt(dual), math.sqrt(kx) + psi_norm)

    def stop(x_new, r_new, _):
        nonlocal g, r_kept
        if g is not None:
            g = grad2d(x_new)
        r_kept = r_new
        if (primal_residual(x_new) <= PDHG_TOL
                and dual_residual(r_new, g) <= PDHG_TOL):
            return "converged"
        return None

    x, report = _iterate(op, psi, x, max_iter, step, stop=stop)
    if g is not None:
        report.objective += beta * _l1(g)
    report.objective += alpha * _l1(x - prior)
    report.primal_residual = primal_residual(x)
    report.dual_residual = dual_residual(r_kept, g)
    return x, report


def _extrapolate(v, v_prev):
    """2 v - v_prev in a fresh array."""
    out = np.multiply(v, 2.0)
    out -= v_prev
    return out


def _ratio(num, den):
    """num / den, with 0 / 0 = 0 and num / 0 = inf for num > 0."""
    if den > 0:
        return num / den
    return 0.0 if num == 0 else math.inf


def _sq(v):
    """Squared Euclidean norm: v . v in memory order, as np.linalg.norm."""
    v = v.ravel(order="K")
    return float(v.dot(v))


def _l1(v):
    """||v||_1, the sum of |v|."""
    return float(np.abs(v).sum())
