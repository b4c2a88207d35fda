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

from .autodiff import Tensor, scale, tsum
from .checkpoint import save_checkpoint
from .errors import ConfigError, DatasetFormatError
from .optim import adamw_step, init_adamw, lr_cosine
from .pipeline import ReconConfig, initial_frames
from .spec import check_fields, spec
from .stt import (SttConfig, _run, check_stt_params, init_stt_params, refine,
                  rollout)

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

# AdamW settings of both STT trainers
ADAMW_BETAS = (0.9, 0.95)
ADAMW_WEIGHT_DECAY = 1e-2
ADAMW_EPS = 1e-8

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
    checkpoint_every: int = spec(0, minimum=0)
    out_dir: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.min_lr > self.max_lr:
            raise ConfigError("/min_lr", "must not exceed max_lr")


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

def landweber_pairs(dataset):
    """Initial reconstructions of frames 0 and 1 for every dataset item.

    pipeline.initial_frames under the default ReconConfig: plain
    Landweber (pipeline.solve_step's L2 solver at alpha = 0) on each
    frame's own measurements, run to the discrepancy-increase stop within
    pipeline.LANDWEBER_ITERS steps, so reconstruction starts from the
    same pairs.  Returns float32 (N, 2, H, W).
    """
    cfg = ReconConfig(image_size=dataset.geometry.image_size)
    pairs = []
    for i, sino in enumerate(dataset.sinograms):
        if len(sino.frames) < 2 or dataset.gt[i].shape[0] < 2:
            raise DatasetFormatError(
                f"item {i} lacks the two initial frames needed for training")
        pairs.append(initial_frames(sino, cfg).astype(np.float32))
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


# ------------------------------------------------------- shared epoch loop

_NO_SCHEDULE = dict.fromkeys(("gt_ratio", "tf_ratio", "rollout"), "")


def _fit(dataset, val_dataset, cfg, model_cfg, kind, salt, prepare, batch,
         val_loss, val_columns):
    """Epoch loop of both STT trainers; returns (params, log_rows).

    prepare(dataset) turns a dataset into arrays with one row per item.
    batch(params, optimizer, rng, data, idx, e, lr) trains on the items
    idx and returns ([(loss, count), ...], refused updates, schedule
    columns); val_loss(params, val_data) gives the validation loss. The
    val row repeats the schedule columns named in val_columns.
    """
    for label, ds in (("dataset", dataset), ("val_dataset", val_dataset)):
        if ds is not None and len(ds) == 0:
            raise ConfigError(label, "needs at least one item")
        if ds is not None and ds.geometry.image_size != model_cfg.image_size:
            raise ConfigError("model.image_size",
                              f"{model_cfg.image_size} does not match "
                              f"{label} {ds.geometry.image_size}")
    data = prepare(dataset)
    val = prepare(val_dataset) if val_dataset is not None else None
    n = len(dataset)

    params = init_stt_params(model_cfg, seed=cfg.seed)
    optimizer = init_adamw(params, betas=ADAMW_BETAS, eps=ADAMW_EPS,
                           weight_decay=ADAMW_WEIGHT_DECAY)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, salt]))

    log = []
    for e in range(cfg.epochs):
        lr = lr_cosine(e, cfg.warmup, cfg.epochs, cfg.min_lr, cfg.max_lr,
                       cfg.hold_until)
        order = rng.permutation(n)
        total, steps, skipped = 0.0, 0, 0
        for start in range(0, n, cfg.batch_size):
            losses, refused, cols = batch(params, optimizer, rng, data,
                                          order[start:start + cfg.batch_size],
                                          e, lr)
            skipped += refused
            for loss, count in losses:
                total += loss * count
                steps += count
        rows = [("train", total / max(steps, 1), {**cols, "skipped": skipped})]
        if val is not None:
            rows.append(("val", val_loss(params, val),
                         {k: cols[k] for k in val_columns}))
        log += [{"epoch": e, "split": split, "loss": loss, "lr": lr,
                 **_NO_SCHEDULE, **rest} for split, loss, rest in rows]

        last = e == cfg.epochs - 1
        due = cfg.checkpoint_every > 0 and (e + 1) % cfg.checkpoint_every == 0
        if cfg.out_dir is not None and (last or due):
            name = "final" if last else f"epoch_{e + 1:03d}"
            extra = {"epoch": e + 1, "kind": kind, "model": model_cfg.to_dict()}
            save_checkpoint(os.path.join(cfg.out_dir, name), params,
                            extra=extra)

    if cfg.log_path:
        write_log(cfg.log_path, log)
    return params, log


# ------------------------------------------------------ refinement training

def train_refinement(dataset, cfg, model_cfg=None, val_dataset=None):
    """Train the two-frame refinement model.

    Per sample and epoch, the input pair is the ground truth with
    probability gt_ratio(epoch), otherwise the Landweber pair; the target
    is always the ground truth and the loss is half the summed squared
    error over both frames, averaged over the batch.

    Returns (params, log_rows); writes CSV/checkpoints per cfg.
    """
    if model_cfg is None:
        model_cfg = SttConfig(image_size=dataset.geometry.image_size)

    def prepare(ds):
        return (landweber_pairs(ds),
                np.stack([g[:2] for g in ds.gt]).astype(np.float32))

    def batch(params, optimizer, rng, data, idx, e, lr):
        lw, gt = data
        g_ratio = gt_ratio(e)
        use_gt = rng.random(len(idx)) < g_ratio
        x = np.where(use_gt[:, None, None, None], gt[idx], lw[idx])
        diff = _run(params, model_cfg, x, np.arange(2))[0] - Tensor(gt[idx])
        loss = scale(tsum(diff * diff), 0.5 / len(idx))
        refused = _update(params, optimizer, loss, lr)
        return [(loss.item(), len(idx))], refused, {"gt_ratio": g_ratio}

    def val_loss(params, data):
        lw, gt = data
        total = 0.0
        for i in range(lw.shape[0]):
            ref = refine(params, model_cfg, lw[i])
            total += 0.5 * float(np.sum((ref - gt[i]) ** 2))
        return total / lw.shape[0]

    return _fit(dataset, val_dataset, cfg, model_cfg, "refine", 101, prepare,
                batch, val_loss, val_columns=())


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
    if model_cfg is None:
        model_cfg = refine_cfg
    check_stt_params(refine_params, refine_cfg, "refine",
                     dataset.geometry.image_size)

    def prepare(ds):
        gt = np.stack(ds.gt).astype(np.float32)
        if gt.shape[1] < 3:
            raise ConfigError("dataset",
                              "prediction training needs at least 3 frames per item")
        lw = landweber_pairs(ds)
        refined = np.stack([refine(refine_params, refine_cfg, pair)
                            for pair in lw])
        return refined, gt

    def batch(params, optimizer, rng, data, idx, e, lr):
        refined, gt = data
        tf, cap = teacher_forcing_ratio(e), max_rollout(e)
        roll = np.where(rng.random(len(idx)) < rollout_prob(e), cap, 1)
        roll = np.minimum(roll, gt.shape[1] - 2)
        history = np.empty((len(idx),) + gt.shape[1:], dtype=np.float32)
        history[:, :2] = refined[idx]
        losses, refused = [], 0
        for s in range(int(roll.max())):
            t = s + 2
            active = np.flatnonzero(roll > s)
            pred, _ = _run(params, model_cfg, history[active, :t],
                           np.arange(t + 1), decode=1, query=True)
            target = gt[idx[active], t]
            diff = pred - Tensor(target[:, None])
            loss = scale(tsum(diff * diff), 1.0 / len(active))
            refused += _update(params, optimizer, loss, lr)
            losses.append((loss.item(), len(active)))

            use_gt = rng.random(len(active)) < tf
            history[active, t] = np.where(use_gt[:, None, None], target,
                                          pred.data[:, 0])
            if on_step is not None:
                on_step({"epoch": e, "target": t,
                         "samples": idx[active].tolist(),
                         "sources": ["gt" if u else "pred" for u in use_gt]})
        return losses, refused, {"tf_ratio": tf, "rollout": cap}

    def val_loss(params, data):
        refined, gt = data
        total, steps = 0.0, 0
        for i in range(refined.shape[0]):
            frames = rollout(params, model_cfg, refined[i], gt.shape[1] - 2)
            for t in range(2, gt.shape[1]):
                total += float(np.sum((frames[t] - gt[i, t]) ** 2))
                steps += 1
        return total / max(steps, 1)

    return _fit(dataset, val_dataset, cfg, model_cfg, "predict", 202, prepare,
                batch, val_loss, val_columns=("tf_ratio", "rollout"))
