"""Training loops and schedules for the refinement and prediction models.

Both models share the spatial-temporal transformer architecture. The
refinement model learns to clean up the two initial algebraic
reconstructions; its inputs anneal from ground-truth pairs to actual
Landweber pairs over the epochs. The prediction model learns next-frame
forecasting on top of the frozen refinement outputs, with probabilistic
teacher forcing and a rollout length that grows during training.
"""

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, scale, tslice, tsum
from .checkpoint import save_checkpoint
from .errors import ConfigError, DatasetFormatError
from .geometry import operator_for_angles
from .optim import adamw_step, init_adamw, lr_cosine
from .solvers import l2_tcr
from .spec import check_fields, spec
from .stt import SttConfig, init_stt_params, refine, rollout, stt_apply

__all__ = [
    "TrainConfig",
    "prediction_train_config",
    "gt_ratio",
    "teacher_forcing_ratio",
    "max_rollout",
    "rollout_prob",
    "landweber_pairs",
    "train_refinement",
    "train_prediction",
    "write_log",
    "LOG_COLUMNS",
]

LOG_COLUMNS = ("epoch", "split", "loss", "lr", "gt_ratio", "tf_ratio", "rollout",
               "skipped")


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters; LR defaults match the refinement schedule."""

    epochs: int = spec(100, minimum=1)
    batch_size: int = spec(8, minimum=1)
    seed: int = 0
    warmup: int = spec(10, minimum=0)
    hold_until: int = spec(0, minimum=0)
    min_lr: float = spec(1e-6, minimum=0.0)
    max_lr: float = spec(1e-4, minimum=0.0)
    betas: tuple = (0.9, 0.95)
    weight_decay: float = 1e-2
    adam_eps: float = 1e-8
    landweber_iters: int = 19
    checkpoint_every: int = spec(0, minimum=0)
    out_dir: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        check_fields(self)


def prediction_train_config(**overrides):
    """TrainConfig preset for the prediction model (3e-5, hold 40 epochs)."""
    base = TrainConfig(warmup=0, hold_until=40, max_lr=3e-5)
    return replace(base, **overrides) if overrides else base


# ------------------------------------------------------------- schedules

def gt_ratio(e):
    """Share of ground-truth input pairs during refinement training."""
    if e < 0:
        raise ValueError(f"epoch must be nonnegative, got {e}")
    if e < 10:
        return 1.0
    if e < 40:
        return 1.0 - (e - 10) / 37.5
    return 0.2


def teacher_forcing_ratio(e):
    """Probability that a rollout step consumes the ground-truth frame."""
    if e < 0:
        raise ValueError(f"epoch must be nonnegative, got {e}")
    return max(0.0, 0.9 * (1.0 - e / 85.0))


def max_rollout(e):
    """Rollout length cap: grows 2 -> 4 -> 6 -> 8 at epochs 30/70/90."""
    if e < 0:
        raise ValueError(f"epoch must be nonnegative, got {e}")
    if e < 30:
        return 2
    if e < 70:
        return 4
    if e < 90:
        return 6
    return 8


def rollout_prob(e):
    """Probability of rolling out to the cap instead of a single step."""
    if e < 0:
        raise ValueError(f"epoch must be nonnegative, got {e}")
    return min(1.0, e / 30.0)


# ------------------------------------------------------- data preparation

def landweber_pairs(dataset, max_iter=19):
    """Initial reconstructions of frames 0 and 1 for every dataset item.

    Plain Landweber (no coupling term) on each frame's own measurements,
    run to the discrepancy-increase stop. Returns float32 (N, 2, H, W).
    """
    size = dataset.geometry.image_size
    pairs = []
    for i, sino in enumerate(dataset.sinograms):
        if len(sino.frames) < 2 or dataset.gt[i].shape[0] < 2:
            raise DatasetFormatError(
                f"item {i} lacks the two initial frames needed for training")
        pair = []
        for t in range(2):
            op = operator_for_angles(sino.angles[t], sino.offsets, size)
            x, _ = l2_tcr(op, sino.frames[t], np.zeros((size, size)),
                          alpha=0.0, max_iter=max_iter)
            pair.append(x.astype(np.float32))
        pairs.append(np.stack(pair))
    return np.stack(pairs)


def _zero_grads(params):
    for t in params.values():
        t.grad = None


def _update(params, optimizer, loss, lr):
    """Zero the grads of params, backpropagate loss, take one AdamW step;
    return 1 if adamw_step refused it (a non-finite gradient), else 0."""
    _zero_grads(params)
    loss.backward()
    return int(not adamw_step(params, optimizer, lr)["applied"])


def write_log(path, rows):
    """Write training log rows as CSV.

    The header is LOG_COLUMNS followed by any further keys, in the order
    the rows first carry them; a row leaves the columns it lacks empty.
    """
    columns = list(LOG_COLUMNS)
    for row in rows:
        columns += [k for k in row if k not in columns]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _checkpoint(cfg, params, optimizer, model_cfg, kind, epoch, final=False):
    if cfg.out_dir is None:
        return
    want_cadence = cfg.checkpoint_every > 0 and (epoch + 1) % cfg.checkpoint_every == 0
    if final:
        path = os.path.join(cfg.out_dir, "final")
    elif want_cadence:
        path = os.path.join(cfg.out_dir, f"epoch_{epoch + 1:03d}")
    else:
        return
    extra = {"epoch": epoch + 1, "kind": kind, "model": model_cfg.to_dict()}
    save_checkpoint(path, params, extra=extra, optimizer=optimizer)


# ------------------------------------------------------ refinement training

def train_refinement(dataset, cfg, model_cfg=None, val_dataset=None):
    """Train the two-frame refinement model.

    Per sample and epoch, the input pair is the ground truth with
    probability gt_ratio(epoch), otherwise the Landweber pair; the target
    is always the ground truth and the loss is half the summed squared
    error over both frames, averaged over the batch.

    Returns (params, log_rows); writes CSV/checkpoints per cfg.
    """
    size = dataset.geometry.image_size
    if model_cfg is None:
        model_cfg = SttConfig(image_size=size)
    if model_cfg.image_size != size:
        raise ConfigError("model.image_size",
                          f"{model_cfg.image_size} does not match dataset {size}")

    lw = landweber_pairs(dataset, max_iter=cfg.landweber_iters)
    gt = np.stack([g[:2] for g in dataset.gt]).astype(np.float32)
    n = gt.shape[0]
    val_lw = val_gt = None
    if val_dataset is not None:
        val_lw = landweber_pairs(val_dataset, max_iter=cfg.landweber_iters)
        val_gt = np.stack([g[:2] for g in val_dataset.gt]).astype(np.float32)

    params = init_stt_params(model_cfg, seed=cfg.seed)
    optimizer = init_adamw(params, betas=cfg.betas, eps=cfg.adam_eps,
                           weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))

    log = []
    for e in range(cfg.epochs):
        lr = lr_cosine(e, cfg.warmup, cfg.epochs, cfg.min_lr, cfg.max_lr,
                       cfg.hold_until)
        g_ratio = gt_ratio(e)
        order = rng.permutation(n)
        total, skipped = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            use_gt = rng.random(len(idx)) < g_ratio
            x = np.where(use_gt[:, None, None, None], gt[idx], lw[idx])
            out = stt_apply(params, model_cfg, x.astype(np.float32))
            diff = tslice(out, (slice(None), slice(0, 2))) - Tensor(gt[idx])
            loss = scale(tsum(diff * diff), 0.5 / len(idx))
            skipped += _update(params, optimizer, loss, lr)
            total += loss.item() * len(idx)
        log.append({"epoch": e, "split": "train", "loss": total / n, "lr": lr,
                    "gt_ratio": g_ratio, "tf_ratio": "", "rollout": "",
                    "skipped": skipped})

        if val_lw is not None:
            v_total = 0.0
            for i in range(val_lw.shape[0]):
                ref = refine(params, model_cfg, val_lw[i])
                v_total += 0.5 * float(np.sum((ref - val_gt[i]) ** 2))
            log.append({"epoch": e, "split": "val",
                        "loss": v_total / val_lw.shape[0], "lr": lr,
                        "gt_ratio": "", "tf_ratio": "", "rollout": ""})
        _checkpoint(cfg, params, optimizer, model_cfg, "refine", e,
                    final=e == cfg.epochs - 1)

    if cfg.log_path:
        write_log(cfg.log_path, log)
    return params, log


# ------------------------------------------------------ prediction training

def train_prediction(dataset, refine_params, refine_cfg, cfg, model_cfg=None,
                     val_dataset=None, on_step=None):
    """Train the next-frame prediction model on frozen refinement outputs.

    Per sample and epoch e: the history starts from the refined frames
    0 and 1; with probability rollout_prob(e) the sample rolls out
    max_rollout(e) steps, otherwise one step (capped at T - 2 either
    way). At step t the model predicts frame t, the optimizer updates
    immediately, and the frame appended to the history is the ground
    truth with probability teacher_forcing_ratio(e), else the prediction.

    on_step, if given, is called with a dict describing each rollout step
    (epoch, target index, sample ids, history sources).

    Returns (params, log_rows); writes CSV/checkpoints per cfg.
    """
    size = dataset.geometry.image_size
    if model_cfg is None:
        model_cfg = refine_cfg
    if model_cfg.image_size != size:
        raise ConfigError("model.image_size",
                          f"{model_cfg.image_size} does not match dataset {size}")
    gt = np.stack(dataset.gt).astype(np.float32)
    n, n_frames = gt.shape[0], gt.shape[1]
    if n_frames < 3:
        raise ConfigError("dataset",
                          "prediction training needs at least 3 frames per item")

    lw = landweber_pairs(dataset, max_iter=cfg.landweber_iters)
    refined = np.stack([refine(refine_params, refine_cfg, lw[i])
                        for i in range(n)]).astype(np.float32)
    val_refined = val_gt = None
    if val_dataset is not None:
        val_lw = landweber_pairs(val_dataset, max_iter=cfg.landweber_iters)
        val_refined = np.stack([refine(refine_params, refine_cfg, val_lw[i])
                                for i in range(val_lw.shape[0])]).astype(np.float32)
        val_gt = np.stack(val_dataset.gt).astype(np.float32)

    params = init_stt_params(model_cfg, seed=cfg.seed)
    optimizer = init_adamw(params, betas=cfg.betas, eps=cfg.adam_eps,
                           weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))

    log = []
    for e in range(cfg.epochs):
        lr = lr_cosine(e, cfg.warmup, cfg.epochs, cfg.min_lr, cfg.max_lr,
                       cfg.hold_until)
        tf = teacher_forcing_ratio(e)
        cap = max_rollout(e)
        prob = rollout_prob(e)
        order = rng.permutation(n)
        total = 0.0
        steps = skipped = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            roll = np.where(rng.random(len(idx)) < prob, cap, 1)
            roll = np.minimum(roll, n_frames - 2)
            history = [list(refined[i]) for i in idx]
            for s in range(int(roll.max())):
                t = s + 2
                active = [j for j in range(len(idx)) if roll[j] > s]
                x = np.stack([np.stack(history[j]) for j in active])
                out = stt_apply(params, model_cfg, x)
                pred = tslice(out, (slice(None), slice(t, t + 1)))
                target = gt[idx[active], t][:, None]
                diff = pred - Tensor(target)
                loss = scale(tsum(diff * diff), 1.0 / len(active))
                skipped += _update(params, optimizer, loss, lr)
                total += loss.item() * len(active)
                steps += len(active)

                use_gt = rng.random(len(active)) < tf
                pred_np = pred.data[:, 0]
                sources = []
                for j, a in enumerate(active):
                    if use_gt[j]:
                        history[a].append(gt[idx[a], t])
                        sources.append("gt")
                    else:
                        history[a].append(pred_np[j].astype(np.float32))
                        sources.append("pred")
                if on_step is not None:
                    on_step({"epoch": e, "target": t,
                             "samples": [int(idx[a]) for a in active],
                             "sources": sources})
        log.append({"epoch": e, "split": "train", "loss": total / max(steps, 1),
                    "lr": lr, "gt_ratio": "", "tf_ratio": tf, "rollout": cap,
                    "skipped": skipped})

        if val_refined is not None:
            v_total = 0.0
            v_steps = 0
            for i in range(val_refined.shape[0]):
                frames = rollout(params, model_cfg, val_refined[i],
                                 val_gt.shape[1] - 2)
                for t in range(2, val_gt.shape[1]):
                    v_total += float(np.sum((frames[t] - val_gt[i, t]) ** 2))
                    v_steps += 1
            log.append({"epoch": e, "split": "val",
                        "loss": v_total / max(v_steps, 1), "lr": lr,
                        "gt_ratio": "", "tf_ratio": tf, "rollout": cap})
        _checkpoint(cfg, params, optimizer, model_cfg, "predict", e,
                    final=e == cfg.epochs - 1)

    if cfg.log_path:
        write_log(cfg.log_path, log)
    return params, log
