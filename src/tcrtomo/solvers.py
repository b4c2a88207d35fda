"""Per-time-step variational solvers with a prediction prior.

Each solver minimizes a data term 1/2 ||A x - psi||^2 plus a penalty that
anchors x to a prior image (the temporal prediction):

    l2_tcr          + alpha/2 ||x - prior||^2      (gradient iteration)
    l1_tcr_fista    + alpha ||x - prior||_1        (FISTA)
    l1_tv_tcr_pdhg  + alpha ||x - prior||_1 + beta ||grad x||_1   (PDHG)

All of them return (solution, SolveReport).  Operators follow the
forward/adjoint protocol of geometry.LinearOperator; images may have any
shape as long as it matches the operator.

All three share one preamble (checks, float64 casts, the x0 copy) and
project each kept iterate once: its residual A x - psi gives both the
discrepancy and the data term of the objective, and l2_tcr reuses it in
the next gradient.  Each trace entry is the value a separate projection
of that iterate would give.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolveReport:
    """Trace of one solver run.

    discrepancies[i] is ||A x_i - psi|| for the kept iterates x_0..x_n, so
    its length is iterations + 1.  objectives traces the full objective for
    solvers that track it (FISTA, PDHG).
    """

    iterations: int = 0
    stop_reason: str = "max_iter"
    discrepancies: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    objective: float = float("nan")


def soft_threshold(v, lam):
    """Proximal map of lam * ||.||_1: sign(v) * max(|v| - lam, 0)."""
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    v = np.asarray(v)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


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


def _residual(op, x, psi, l1=None, tv=None):
    """Residual r = A x - psi of iterate x, its norm, and the objective.

    The discrepancy ||r|| and the data term 1/2 ||r||^2 come from the one
    projection.  l1 = (alpha, prior) adds alpha ||x - prior||_1 and
    tv = beta adds beta ||grad x||_1; the objective sums data, TV, then L1,
    left to right, and is None when neither term is given.
    """
    r = op.forward(x) - psi
    obj = None
    if l1 is not None or tv is not None:
        obj = 0.5 * float(np.sum(r ** 2))
        if tv is not None:
            gr, gc = grad2d(x)
            obj += tv * float(np.sum(np.abs(gr)) + np.sum(np.abs(gc)))
        if l1 is not None:
            alpha, prior = l1
            obj += alpha * float(np.sum(np.abs(x - prior)))
    return r, float(np.linalg.norm(r.ravel())), obj


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

    r, d, _ = _residual(op, x, psi)
    report = SolveReport(discrepancies=[d])
    for _ in range(max_iter):
        grad = op.adjoint(r)
        if alpha > 0:
            grad = grad + alpha * (x - prior)
        x_new = x - tau * grad
        r_new, d_new, _ = _residual(op, x_new, psi)
        if d_new > d:
            report.stop_reason = "discrepancy_increase"
            break
        x, r, d = x_new, r_new, d_new
        report.discrepancies.append(d)
        report.iterations += 1
    report.objective = 0.5 * d * d
    if alpha > 0:
        report.objective += 0.5 * alpha * float(np.sum((x - prior) ** 2))
    return x, report


def l1_tcr_fista(op, psi, prior, alpha, x0=None, max_iter=200):
    """FISTA on 1/2||Ax - psi||^2 + alpha ||x - prior||_1.

    Fixed iteration budget, step 1 / (1.01 * ||A^T A||), momentum
    h_1 = 1, h_{k+1} = (1 + sqrt(1 + 4 h_k^2)) / 2,
    y_{k+1} = x_k + (h_k - 1)/h_{k+1} * (x_k - x_{k-1}).
    """
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha)
    step = 1.0 / (1.01 * op.norm_ata())
    lam = alpha * step

    _, d, obj = _residual(op, x, psi, l1=(alpha, prior))
    report = SolveReport(discrepancies=[d], objectives=[obj])
    x_prev = x
    y = x
    h = 1.0
    for _ in range(max_iter):
        grad = op.adjoint(op.forward(y) - psi)
        x = prox_shifted_l1(y - step * grad, lam, prior)
        h_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * h * h))
        y = x + ((h - 1.0) / h_new) * (x - x_prev)
        x_prev = x
        h = h_new
        _, d, obj = _residual(op, x, psi, l1=(alpha, prior))
        report.discrepancies.append(d)
        report.objectives.append(obj)
        report.iterations += 1
    report.objective = report.objectives[-1]
    return x, report


def grad2d(x):
    """Forward differences with replicate (Neumann) boundary: last row/col 0.

    Returns (d_rows, d_cols).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"grad2d expects a 2-D array, got shape {x.shape}")
    gr = np.zeros_like(x)
    gc = np.zeros_like(x)
    gr[:-1, :] = x[1:, :] - x[:-1, :]
    gc[:, :-1] = x[:, 1:] - x[:, :-1]
    return gr, gc


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
      x  <- prox_shifted_l1(x - tau (A^T y1 - div y2), tau alpha, prior)
      xbar = 2 x_new - x
    with tau = sigma = 0.99 / ||K||, ||K||^2 <= 1.01 ||A^T A|| + 8.
    """
    psi, prior, x = _prepare(op, psi, prior, x0, max_iter, alpha=alpha,
                             beta=beta)
    if len(op.in_shape) != 2:
        raise ValueError(f"TV solver needs 2-D images, got shape {op.in_shape}")
    tau = sigma = 0.99 / np.sqrt(1.01 * op.norm_ata() + 8.0)
    xbar = x.copy()
    y1 = np.zeros(op.out_shape)
    y2r = np.zeros(op.in_shape)
    y2c = np.zeros(op.in_shape)

    _, d, obj = _residual(op, x, psi, l1=(alpha, prior), tv=beta)
    report = SolveReport(discrepancies=[d], objectives=[obj])
    for _ in range(max_iter):
        y1 = (y1 + sigma * (op.forward(xbar) - psi)) / (1.0 + sigma)
        gr, gc = grad2d(xbar)
        y2r = np.clip(y2r + sigma * gr, -beta, beta)
        y2c = np.clip(y2c + sigma * gc, -beta, beta)
        x_new = prox_shifted_l1(
            x - tau * (op.adjoint(y1) - div2d(y2r, y2c)), tau * alpha, prior)
        xbar = 2.0 * x_new - x
        x = x_new
        _, d, obj = _residual(op, x, psi, l1=(alpha, prior), tv=beta)
        report.discrepancies.append(d)
        report.objectives.append(obj)
        report.iterations += 1
    report.objective = report.objectives[-1]
    return x, report
