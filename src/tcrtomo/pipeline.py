"""Full dynamic reconstruction: refine the initial frames, then alternate
next-frame prediction and per-step variational solving.

The sequence structure is strictly causal. Frames 0 and 1 are densely
sampled: they get a plain algebraic initialization and a learned
refinement. Then one loop solves each frame once, on the step's own
data: frame 0 against its refined estimate, and each frame t = 1, 2, ...
against the prior the transformer predicts from the already-computed
reconstructions 0..t-1 (never from the model's own rollout). The
refined frame 1 is reported but is no solve's prior, even though the
prediction model that gives frame 1's prior from frame 0 alone is
trained on histories of two or more frames only.

The predictions stream: one stt.Predictor per sequence receives frame
t-1 once it is solved, and keeps each attention block's keys and values
of the frames before it (the last `window` of them when the model sets
one). So a step runs only its new slots through the transformer and
decodes one; only attention reads the whole cache, which grows by one
slot per frame unless `window` caps it.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import RESULT, entries, read_f32, read_meta, write_f32
from .artifacts import write_meta
from .errors import NumericalError
from .geometry import operator_for_angles
from .metrics import psnr, ssim
from .solvers import l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr
from .spec import check_fields, spec
from .stt import Predictor, check_stt_params, refine

__all__ = [
    "ReconConfig",
    "ReconResult",
    "solve_step",
    "initial_frames",
    "tcr_reconstruct",
    "select_alphas",
    "evaluate",
    "aggregate_metrics",
    "save_result",
    "load_result",
]

# Landweber budget of the frames-0/1 bootstrap, in training and in
# reconstruction alike
LANDWEBER_ITERS = 19


@dataclass(frozen=True)
class ReconConfig:
    """Reconstruction settings: solver family, coupling weights, caps.

    alpha_init applies to the solves of frames 0 and 1, alpha_rest to
    every later step; beta_* are the TV weights of the L1TV solver with
    the same split. The initial frames (initial_frames) use plain
    Landweber at LANDWEBER_ITERS, as the pairs the refinement model is
    trained on do; the "tv" init_mode solves a TV-regularized problem
    instead, for measured data whose raw backprojections are too streaky
    to refine. Solver names may be given in lower case.
    """

    image_size: int = spec(minimum=8)
    solver: str = spec("L1", choices=("L2", "L1", "L1TV",
                                      "l2", "l1", "l1tv"))
    alpha_init: float = spec(0.1, minimum=0.0)
    alpha_rest: float = spec(0.1, minimum=0.0)
    beta_init: float = spec(0.0, minimum=0.0)
    beta_rest: float = spec(0.0, minimum=0.0)
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
    reports: one dict per step (step, phase, SolveReport).
    metrics: the per-step rows save_result writes: empty unless a caller
        attaches evaluate's "frames" (the CLI does for dataset input).
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


def initial_frames(sino, cfg, trace=None):
    """Bootstrap solves of frames 0 and 1 from zero, without coupling term.

    The one map behind both the reconstruction's initial frames and the
    training pairs of the refinement model (training.landweber_pairs):
    each frame is solved on its own data by plain Landweber within
    LANDWEBER_ITERS steps, or by TV-regularized PDHG when cfg.init_mode
    is "tv". trace, if given, receives ("initial", t) before frame t's
    solve; a failing solve is a NumericalError naming its step.
    Returns float64 (2, H, W).
    """
    frames = []
    for t in range(2):
        if trace is not None:
            trace(("initial", t))
        try:
            op = operator_for_angles(sino.angles[t], sino.offsets,
                                     cfg.image_size)
            zeros = np.zeros(op.in_shape)
            if cfg.init_mode == "landweber":
                x, _ = l2_tcr(op, sino.frames[t], zeros, 0.0,
                              max_iter=LANDWEBER_ITERS)
            else:
                x, _ = l1_tv_tcr_pdhg(op, sino.frames[t], zeros, 0.0,
                                      cfg.init_tv_weight,
                                      max_iter=cfg.max_iter_pdhg)
        except Exception as exc:
            raise NumericalError(
                f"initialization failed at step {t}: {exc}") from exc
        frames.append(x)
    return np.stack(frames)


def tcr_reconstruct(sino, cfg, refine_model, predict_model, trace=None):
    """Reconstruct a full measured sequence.

    sino: Sinogram with per-step projection data and angles.
    refine_model / predict_model: (params, SttConfig) pairs.
    trace: optional callable receiving dataflow events, used by tests to
        audit causality (a "predict" event's history is the predictor's:
        the frames it holds and the one pushed next). bench/ derives its
        stage and frame times from these tuples, so changing them needs a
        benchmark change first (ROADMAP items 4 and 5).

    Returns a ReconResult without metric rows (evaluate scores it).
    Solver failures carry the step index.
    """
    n_frames = len(sino.frames)
    if n_frames < 2:
        raise ValueError("sinogram must cover at least 2 time steps")
    size = cfg.image_size
    re_params, re_cfg = refine_model
    pre_params, pre_cfg = predict_model
    check_stt_params(re_params, re_cfg, "refine", size)
    check_stt_params(pre_params, pre_cfg, "predict", size)

    def emit(*event):
        if trace is not None:
            trace(event)

    initial = initial_frames(sino, cfg, trace)

    emit("refine", (0, 1))
    refined = refine(re_params, re_cfg, initial.astype(np.float32))

    recon = np.zeros((n_frames, size, size))
    predictions = np.zeros((n_frames - 1, size, size), dtype=np.float32)
    predictor = Predictor(pre_params, pre_cfg)
    reports = []
    for t in range(n_frames):
        phase, prior = "init", refined[0]
        if t > 0:
            if trace is not None:  # the history tuple only for a listener
                emit("predict", t, tuple(range(predictor.length + 1)))
            phase = "loop"
            prior = predictions[t - 1] = predictor.push(
                recon[t - 1].astype(np.float32))
        alpha, beta = ((cfg.alpha_init, cfg.beta_init) if t < 2
                       else (cfg.alpha_rest, cfg.beta_rest))
        emit("solve", t, phase)
        try:
            op = operator_for_angles(sino.angles[t], sino.offsets, size)
            recon[t], rep = solve_step(op, sino.frames[t],
                                       prior.astype(np.float64), alpha, beta,
                                       cfg)
        except Exception as exc:
            raise NumericalError(f"solver failed at step {t}: {exc}") from exc
        reports.append({"step": t, "phase": phase, "report": rep})

    return ReconResult(reconstructions=recon, predictions=predictions,
                       refined=np.asarray(refined), initial=initial,
                       reports=reports)


# ------------------------------------------------- parameter selection

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

    The one producer of metric rows: the CLI scores the float32 frames
    save_result writes, at the run's eval.data_range.

    Returns a dict with a "frames" list (one row per time step) and
    aggregate entries: all-frames mean and std plus the last-frame value,
    for each of recon/prior x PSNR/SSIM.  SSIM uses the largest odd window
    that fits the frame, up to 11 (7 for an 8 px frame).
    """
    gt = np.asarray(gt, dtype=np.float64)
    recon = result.reconstructions
    if gt.shape != recon.shape:
        raise ValueError(
            f"ground truth shape {gt.shape} does not match {recon.shape}")
    side = min(gt.shape[1:])
    window = min(11, side if side % 2 else side - 1)
    frames = []
    for t in range(gt.shape[0]):
        row = {"step": t,
               "psnr": psnr(gt[t], recon[t], data_range),
               "ssim": ssim(gt[t], recon[t], data_range, window)}
        if t >= 1:
            row["psnr_prior"] = psnr(gt[t], result.predictions[t - 1],
                                     data_range)
            row["ssim_prior"] = ssim(gt[t], result.predictions[t - 1],
                                     data_range, window)
        frames.append(row)

    table = {"frames": frames}
    for stem, key, rows in (("recon_psnr", "psnr", frames),
                            ("recon_ssim", "ssim", frames),
                            ("prior_psnr", "psnr_prior", frames[1:]),
                            ("prior_ssim", "ssim_prior", frames[1:])):
        table[stem + "_mean"], table[stem + "_std"] = _mean_std(
            [r[key] for r in rows])
    table["last_psnr"] = frames[-1]["psnr"]
    table["last_ssim"] = frames[-1]["ssim"]
    return table


def _mean_std(values):
    """Mean and std of values; the spread of non-finite values (the
    infinite PSNR of exact frames) is meaningless, so it is NaN."""
    vals = np.asarray(values, dtype=np.float64)
    std = float(np.std(vals)) if np.all(np.isfinite(vals)) else float("nan")
    return float(np.mean(vals)), std


def aggregate_metrics(tables):
    """Mean and std across sequences of the per-sequence aggregates."""
    if not tables:
        raise ValueError("no evaluation tables to aggregate")
    out = {}
    for key in ("recon_psnr_mean", "recon_ssim_mean", "prior_psnr_mean",
                "prior_ssim_mean", "last_psnr", "last_ssim"):
        base = key[:-5] if key.endswith("_mean") else key
        out[base + "_mean"], out[base + "_std"] = _mean_std(
            [t[key] for t in tables])
    return out


# ------------------------------------------------------- persistence

_RESULT_PAYLOADS = ("recon", "priors", "refined", "initial")


def save_result(path, result, extra=None):
    """Write a reconstruction result directory (.f32 frames + meta.json)."""
    os.makedirs(path, exist_ok=True)
    t, h, w = result.reconstructions.shape
    meta = {
        "n_frames": t,
        "image_size": h,
        "extra": dict(extra or {}),
        "metrics": result.metrics,
        "stop_reasons": [r["report"].stop_reason for r in result.reports],
        "iterations": [r["report"].iterations for r in result.reports],
    }
    write_meta(path, RESULT, meta)
    for name, arr in zip(_RESULT_PAYLOADS, (
            result.reconstructions, result.predictions, result.refined,
            result.initial)):
        write_f32(os.path.join(path, name + ".f32"), arr)


def load_result(path):
    """Read back a result directory written by save_result."""
    meta = read_meta(path, RESULT)
    with entries(path):
        t, size = int(meta["n_frames"]), int(meta["image_size"])
        recon, priors, refined, initial = (
            read_f32(os.path.join(path, name + ".f32"), (n, size, size))
            for name, n in zip(_RESULT_PAYLOADS, (t, t - 1, 2, 2)))
        result = ReconResult(reconstructions=recon.astype(np.float64),
                             predictions=priors, refined=refined,
                             initial=initial, metrics=meta.get("metrics", []))
    return result, meta
