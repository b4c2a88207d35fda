"""Full dynamic reconstruction: refine the initial frames, then alternate
next-frame prediction and per-step variational solving.

The sequence structure is strictly causal. Frames 0 and 1 are densely
sampled: they get a plain algebraic initialization, a learned refinement,
and a variational solve against the refined prior. Every later frame t
gets its prior predicted by the transformer from the already-computed
reconstructions 0..t-1 (never from the model's own rollout), then a
variational solve against that prior on the step's own sparse data.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import _dump_meta, _load_meta, _read_f32, _write_f32
from .errors import ConfigError, DatasetFormatError, NumericalError
from .geometry import operator_for_angles
from .metrics import psnr, ssim
from .solvers import l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr
from .spec import check_fields, spec
from .stt import predict_next, refine

__all__ = [
    "ReconConfig",
    "ReconResult",
    "solve_step",
    "tcr_reconstruct",
    "default_alpha_grid",
    "select_alphas",
    "evaluate",
    "aggregate_metrics",
    "save_result",
    "load_result",
]

@dataclass(frozen=True)
class ReconConfig:
    """Reconstruction settings: solver family, coupling weights, caps.

    alpha_init applies to time steps 0 and 1 (including the step-1
    re-solve inside the sequential loop), alpha_rest to every later
    step; beta_* are the TV weights of the L1TV solver with the same
    split. Initial reconstructions use plain Landweber by default; the
    "tv" mode solves a TV-regularized problem instead, for measured data
    whose raw backprojections are too streaky to refine. Solver names
    may be given in lower case.
    """

    image_size: int = spec(minimum=8)
    solver: str = spec("L1", choices=("L2", "L1", "L1TV",
                                      "l2", "l1", "l1tv"))
    alpha_init: float = spec(0.1, minimum=0.0)
    alpha_rest: float = spec(0.1, minimum=0.0)
    beta_init: float = spec(0.0, minimum=0.0)
    beta_rest: float = spec(0.0, minimum=0.0)
    landweber_iters: int = spec(19, minimum=1)
    max_iter_l2: int = spec(19, minimum=1)
    max_iter_l1: int = spec(200, minimum=1)
    max_iter_pdhg: int = spec(400, minimum=1)
    init_mode: str = spec("landweber", choices=("landweber", "tv"))
    init_tv_weight: float = spec(0.01, minimum=0.0)

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "solver", self.solver.upper())


@dataclass
class ReconResult:
    """Everything a reconstruction run produces.

    reconstructions: (T, H, W) solved frames.
    predictions: (T-1, H, W) priors used by the sequential loop
        (prediction for step t sits at index t-1).
    refined: (2, H, W) refinement-model output for frames 0, 1.
    initial: (2, H, W) raw algebraic reconstructions of frames 0, 1.
    reports: per-solve dicts (step, phase, SolveReport).
    metrics: per-step PSNR/SSIM rows when ground truth was supplied.
    """

    reconstructions: np.ndarray
    predictions: np.ndarray
    refined: np.ndarray
    initial: np.ndarray
    reports: list = field(default_factory=list)
    metrics: list = field(default_factory=list)


def solve_step(op, psi, prior, alpha, beta, cfg):
    """Dispatch one per-step variational problem to the configured solver."""
    if cfg.solver == "L2":
        return l2_tcr(op, psi, prior, alpha, x0=prior,
                      max_iter=cfg.max_iter_l2)
    if cfg.solver == "L1":
        return l1_tcr_fista(op, psi, prior, alpha, x0=prior,
                            max_iter=cfg.max_iter_l1)
    return l1_tv_tcr_pdhg(op, psi, prior, alpha, beta, x0=prior,
                          max_iter=cfg.max_iter_pdhg)


def _initial_recon(op, psi, cfg):
    zeros = np.zeros(op.in_shape)
    if cfg.init_mode == "landweber":
        return l2_tcr(op, psi, zeros, 0.0, max_iter=cfg.landweber_iters)
    return l1_tv_tcr_pdhg(op, psi, zeros, 0.0, cfg.init_tv_weight,
                          max_iter=cfg.max_iter_pdhg)


def _check_models(cfg, n_frames, refine_model, predict_model):
    for label, (params, mcfg) in (("refine", refine_model),
                                  ("predict", predict_model)):
        if mcfg.image_size != cfg.image_size:
            raise ConfigError(f"{label}.image_size",
                              f"checkpoint is {mcfg.image_size}, "
                              f"reconstruction needs {cfg.image_size}")
        missing = [k for k in ("head.w", "final_ln.g") if k not in params]
        if missing:
            raise ConfigError(f"{label}.params",
                              f"checkpoint lacks tensors {missing}")
    _, pcfg = predict_model
    if pcfg.max_context < n_frames - 1:
        raise ConfigError("predict.max_context",
                          f"{pcfg.max_context} cannot cover {n_frames - 1} "
                          "history frames")


def tcr_reconstruct(sino, cfg, refine_model, predict_model, gt=None,
                    trace=None):
    """Reconstruct a full measured sequence.

    sino: Sinogram with per-step projection data and angles.
    refine_model / predict_model: (params, SttConfig) pairs.
    gt: optional (T, H, W) ground truth; fills per-step metric rows.
    trace: optional callable receiving dataflow events, used by tests to
        audit causality.

    Returns a ReconResult. Solver failures carry the step index.
    """
    n_frames = len(sino.frames)
    if n_frames < 2:
        raise ValueError("sinogram must cover at least 2 time steps")
    _check_models(cfg, n_frames, refine_model, predict_model)
    size = cfg.image_size
    re_params, re_cfg = refine_model
    pre_params, pre_cfg = predict_model

    def emit(*event):
        if trace is not None:
            trace(event)

    def operator(t):
        return operator_for_angles(sino.angles[t], sino.offsets, size)

    def solve(t, phase, prior):
        alpha = cfg.alpha_init if t < 2 else cfg.alpha_rest
        beta = cfg.beta_init if t < 2 else cfg.beta_rest
        emit("solve", t, phase)
        try:
            return solve_step(operator(t), sino.frames[t], prior, alpha,
                              beta, cfg)
        except Exception as exc:
            raise NumericalError(f"solver failed at step {t}: {exc}") from exc

    initial = []
    for t in range(2):
        emit("initial", t)
        try:
            x, _ = _initial_recon(operator(t), sino.frames[t], cfg)
        except Exception as exc:
            raise NumericalError(
                f"initialization failed at step {t}: {exc}") from exc
        initial.append(x)
    initial = np.stack(initial)

    emit("refine", (0, 1))
    refined = refine(re_params, re_cfg, initial.astype(np.float32))

    recon = np.zeros((n_frames, size, size))
    reports = []
    for t in range(2):
        x, rep = solve(t, "init", refined[t].astype(np.float64))
        recon[t] = x
        reports.append({"step": t, "phase": "init", "report": rep})

    predictions = np.zeros((n_frames - 1, size, size), dtype=np.float32)
    for t in range(1, n_frames):
        emit("predict", t, tuple(range(t)))
        prior = predict_next(pre_params, pre_cfg,
                             recon[:t].astype(np.float32))
        predictions[t - 1] = prior
        x, rep = solve(t, "loop", prior.astype(np.float64))
        recon[t] = x
        reports.append({"step": t, "phase": "loop", "report": rep})

    result = ReconResult(reconstructions=recon, predictions=predictions,
                         refined=np.asarray(refined), initial=initial,
                         reports=reports)
    if gt is not None:
        result.metrics = evaluate(result, gt)["frames"]
    return result


# ------------------------------------------------- parameter selection

def default_alpha_grid():
    """Logarithmic grid, 8 points per decade over [1e-3, 1]."""
    return np.logspace(-3.0, 0.0, 25)


def select_alphas(validation, cfg, grid_init, grid_rest, refine_model,
                  predict_model):
    """Exhaustive grid search for the two coupling weights.

    Minimizes the mean squared error of the full reconstructed sequence
    against ground truth, averaged over the validation set; ties break
    toward stronger regularization (larger alpha_rest, then alpha_init).
    """
    grid_init = [float(a) for a in np.atleast_1d(grid_init)]
    grid_rest = [float(a) for a in np.atleast_1d(grid_rest)]
    if not grid_init or not grid_rest:
        raise ValueError("alpha grids must be non-empty")
    if not validation.gt:
        raise ValueError("validation set is empty")

    best = None
    for a_init in grid_init:
        for a_rest in grid_rest:
            trial = replace(cfg, alpha_init=a_init, alpha_rest=a_rest)
            err = 0.0
            for i, sino in enumerate(validation.sinograms):
                res = tcr_reconstruct(sino, trial, refine_model,
                                      predict_model)
                gt = np.asarray(validation.gt[i], dtype=np.float64)
                err += float(np.mean((res.reconstructions - gt) ** 2))
            err /= len(validation.sinograms)
            key = (err, -a_rest, -a_init)
            if best is None or key < best[0]:
                best = (key, (a_init, a_rest))
    return best[1]


# --------------------------------------------------------- evaluation

def evaluate(result, gt, data_range=1.0):
    """Per-frame and aggregate PSNR/SSIM for reconstructions and priors.

    Returns a dict with a "frames" list (one row per time step) and
    aggregate entries: all-frames mean and std plus the last-frame value,
    for each of recon/prior x PSNR/SSIM.
    """
    gt = np.asarray(gt, dtype=np.float64)
    recon = result.reconstructions
    if gt.shape != recon.shape:
        raise ValueError(
            f"ground truth shape {gt.shape} does not match {recon.shape}")
    frames = []
    for t in range(gt.shape[0]):
        row = {"step": t,
               "psnr": psnr(gt[t], recon[t], data_range),
               "ssim": ssim(gt[t], recon[t], data_range)}
        if t >= 1:
            row["psnr_prior"] = psnr(gt[t], result.predictions[t - 1],
                                     data_range)
            row["ssim_prior"] = ssim(gt[t], result.predictions[t - 1],
                                     data_range)
        frames.append(row)

    def agg(key, rows):
        vals = np.array([r[key] for r in rows], dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            # infinite PSNR (exact frames) has no meaningful spread
            return float(np.mean(vals)), float("nan")
        return float(np.mean(vals)), float(np.std(vals))

    table = {"frames": frames}
    table["recon_psnr_mean"], table["recon_psnr_std"] = agg("psnr", frames)
    table["recon_ssim_mean"], table["recon_ssim_std"] = agg("ssim", frames)
    prior_rows = frames[1:]
    table["prior_psnr_mean"], table["prior_psnr_std"] = agg("psnr_prior",
                                                            prior_rows)
    table["prior_ssim_mean"], table["prior_ssim_std"] = agg("ssim_prior",
                                                            prior_rows)
    table["last_psnr"] = frames[-1]["psnr"]
    table["last_ssim"] = frames[-1]["ssim"]
    return table


def aggregate_metrics(tables):
    """Mean and std across sequences of the per-sequence aggregates."""
    if not tables:
        raise ValueError("no evaluation tables to aggregate")
    out = {}
    for key in ("recon_psnr_mean", "recon_ssim_mean", "prior_psnr_mean",
                "prior_ssim_mean", "last_psnr", "last_ssim"):
        vals = np.array([t[key] for t in tables], dtype=np.float64)
        base = key[:-5] if key.endswith("_mean") else key
        out[base + "_mean"] = float(np.mean(vals))
        # spread of non-finite aggregates (exact frames) is meaningless
        out[base + "_std"] = (float(np.std(vals))
                              if np.all(np.isfinite(vals)) else float("nan"))
    return out


# ------------------------------------------------------- persistence

def save_result(path, result, extra=None):
    """Write a reconstruction result directory (.f32 frames + meta.json)."""
    os.makedirs(path, exist_ok=True)
    t, h, w = result.reconstructions.shape
    meta = {
        "format": "tcr-result-v1",
        "n_frames": t,
        "image_size": h,
        "extra": dict(extra or {}),
        "metrics": result.metrics,
        "stop_reasons": [r["report"].stop_reason for r in result.reports],
    }
    _dump_meta(os.path.join(path, "meta.json"), meta)
    _write_f32(os.path.join(path, "recon.f32"),
               result.reconstructions.astype(np.float32))
    _write_f32(os.path.join(path, "priors.f32"), result.predictions)
    _write_f32(os.path.join(path, "refined.f32"), result.refined)
    _write_f32(os.path.join(path, "initial.f32"),
               result.initial.astype(np.float32))


def load_result(path):
    """Read back a result directory written by save_result."""
    meta = _load_meta(os.path.join(path, "meta.json"))
    if meta.get("format") != "tcr-result-v1":
        raise DatasetFormatError(f"not a reconstruction result: {path}")
    t = int(meta["n_frames"])
    size = int(meta["image_size"])
    recon = _read_f32(os.path.join(path, "recon.f32"), (t, size, size),
                      "recon")
    priors = _read_f32(os.path.join(path, "priors.f32"),
                       (t - 1, size, size), "priors")
    refined = _read_f32(os.path.join(path, "refined.f32"), (2, size, size),
                        "refined")
    initial = _read_f32(os.path.join(path, "initial.f32"), (2, size, size),
                        "initial")
    result = ReconResult(reconstructions=recon.astype(np.float64),
                         predictions=priors, refined=refined,
                         initial=initial, metrics=meta.get("metrics", []))
    return result, meta
