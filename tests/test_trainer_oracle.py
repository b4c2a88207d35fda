"""Reference oracle for the training loops.

The three reference loops below are the hand-written versions of the
trainers: the refinement and prediction trainers each run their own
epoch loop, and the adversarial trainer runs one loop per phase, each
building its own log rows.  The shipped trainers share one epoch loop
(refine/predict) and run one loop over the phase schedule (UAR); they
must still agree with these loops bit for bit: weights, log rows with
their key order and value types, `log.csv` bytes, checkpoint
directories, `on_step` events and the sampler trace.

The STT loops run the model through the stage runner on the slots their
loss reads, as the trainers do: the refinement pair without the query
slot, and T+1 slots decoding slot T only for prediction.
`tests/test_stt.py` checks those calls against `stt_apply` over every
slot, bitwise or within float32 rounding.
"""

import os
import sys

import numpy as np
import pytest

from tcrtomo import training, uar
from tcrtomo.autodiff import Tensor, no_grad, scale, tsum
from tcrtomo.checkpoint import save_checkpoint
from tcrtomo.datasets import Dataset, Sinogram
from tcrtomo.errors import ConfigError
from tcrtomo.geometry import ScanGeometry
from tcrtomo.optim import init_adamw, lr_cosine
from tcrtomo.phantoms import generate_dataset
from tcrtomo.stt import SttConfig, _run, init_stt_params, refine, rollout
from tcrtomo.training import (TrainConfig, _update, gt_ratio,
                              landweber_pairs, max_rollout,
                              prediction_train_config, rollout_prob,
                              teacher_forcing_ratio, write_log)
from tcrtomo.uar import (UarConfig, UarTrainConfig, _build_pools,
                         _check_mode, critic_params, gen_loss,
                         generator_params, init_uar_params, reg_loss,
                         uar_generator)

# ------------------------------------------------------- reference loops


def ref_checkpoint(cfg, params, model_cfg, kind, epoch, final=False):
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
    save_checkpoint(path, params, extra=extra)


def ref_train_refinement(dataset, cfg, model_cfg=None, val_dataset=None):
    size = dataset.geometry.image_size
    if model_cfg is None:
        model_cfg = SttConfig(image_size=size)
    if model_cfg.image_size != size:
        raise ConfigError("model.image_size",
                          f"{model_cfg.image_size} does not match dataset {size}")

    lw = landweber_pairs(dataset)
    gt = np.stack([g[:2] for g in dataset.gt]).astype(np.float32)
    n = gt.shape[0]
    val_lw = val_gt = None
    if val_dataset is not None:
        val_lw = landweber_pairs(val_dataset)
        val_gt = np.stack([g[:2] for g in val_dataset.gt]).astype(np.float32)

    params = init_stt_params(model_cfg, seed=cfg.seed)
    optimizer = init_adamw(params, betas=training.ADAMW_BETAS,
                           eps=training.ADAMW_EPS,
                           weight_decay=training.ADAMW_WEIGHT_DECAY)
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
            out, _ = _run(params, model_cfg, x, np.arange(2))
            diff = out - Tensor(gt[idx])
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
        ref_checkpoint(cfg, params, model_cfg, "refine", e,
                       final=e == cfg.epochs - 1)

    if cfg.log_path:
        write_log(cfg.log_path, log)
    return params, log


def ref_train_prediction(dataset, refine_params, refine_cfg, cfg,
                         model_cfg=None, val_dataset=None, on_step=None):
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

    lw = landweber_pairs(dataset)
    refined = np.stack([refine(refine_params, refine_cfg, lw[i])
                        for i in range(n)]).astype(np.float32)
    val_refined = val_gt = None
    if val_dataset is not None:
        val_lw = landweber_pairs(val_dataset)
        val_refined = np.stack([refine(refine_params, refine_cfg, val_lw[i])
                                for i in range(val_lw.shape[0])]).astype(np.float32)
        val_gt = np.stack(val_dataset.gt).astype(np.float32)

    params = init_stt_params(model_cfg, seed=cfg.seed)
    optimizer = init_adamw(params, betas=training.ADAMW_BETAS,
                           eps=training.ADAMW_EPS,
                           weight_decay=training.ADAMW_WEIGHT_DECAY)
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
                seq = np.concatenate([x, x[:, -1:]], axis=1)
                pred, _ = _run(params, model_cfg, seq, np.arange(t + 1),
                               decode=1)
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
        ref_checkpoint(cfg, params, model_cfg, "predict", e,
                       final=e == cfg.epochs - 1)

    if cfg.log_path:
        write_log(cfg.log_path, log)
    return params, log


def ref_train_uar(dataset, mode, cfg=None, model_cfg=None,
                  sampler_trace=None):
    _check_mode(mode)
    cfg = cfg if cfg is not None else UarTrainConfig()
    model_cfg = model_cfg if model_cfg is not None else UarConfig()
    n = len(dataset)
    if n < 1:
        raise ConfigError("dataset", "needs at least one item per epoch")
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 303]))
    gt_pool, psi_pool = _build_pools(dataset, mode, rng)
    params = init_uar_params(mode, model_cfg, seed=cfg.seed)
    gen = generator_params(params)
    reg = critic_params(params)
    critic = {k: Tensor(t.data) for k, t in reg.items()}
    opt_reg = init_adamw(reg, betas=uar.ADAM_BETAS, eps=uar.ADAM_EPS,
                         weight_decay=0.0)
    opt_gen = init_adamw(gen, betas=uar.ADAM_BETAS, eps=uar.ADAM_EPS,
                         weight_decay=0.0)

    def trace(phase, i_gt, i_psi):
        if sampler_trace is not None:
            sampler_trace.append((phase, i_gt, i_psi))

    log = []
    epoch = 0
    for _ in range(cfg.phase1_epochs):
        losses, gps, skipped = [], [], 0
        for _ in range(n):
            i_gt = int(rng.integers(n))
            i_psi = int(rng.integers(n))
            eps_mix = float(rng.random())
            trace(1, i_gt, i_psi)
            psi, aop = psi_pool[i_psi]
            u = aop.fbp(psi).astype(np.float32)
            parts = {}
            loss = reg_loss(reg, gt_pool[i_gt], u, eps_mix, cfg.lambda_gp,
                            parts=parts)
            skipped += _update(reg, opt_reg, loss, cfg.lr_warmup)
            losses.append(float(loss.data))
            gps.append(parts["gp"])
        log.append({"epoch": epoch, "split": "phase1",
                    "loss": float(np.mean(losses)), "lr": cfg.lr_warmup,
                    "skipped": skipped, "gp": float(np.mean(gps))})
        epoch += 1
    for _ in range(cfg.phase2_epochs):
        losses, fits, skipped = [], [], 0
        for _ in range(n):
            i_psi = int(rng.integers(n))
            trace(2, -1, i_psi)
            psi, aop = psi_pool[i_psi]
            parts = {}
            loss = gen_loss(gen, critic, psi, aop, cfg.alpha, parts=parts)
            skipped += _update(gen, opt_gen, loss, cfg.lr_warmup)
            losses.append(float(loss.data))
            fits.append(parts["datafit"])
        log.append({"epoch": epoch, "split": "phase2",
                    "loss": float(np.mean(losses)), "lr": cfg.lr_warmup,
                    "skipped": skipped, "datafit": float(np.mean(fits))})
        epoch += 1
    for _ in range(cfg.phase3_epochs):
        reg_losses, gen_losses, fits, gps = [], [], [], []
        skipped = 0
        for _ in range(n):
            i_gt = int(rng.integers(n))
            i_psi = int(rng.integers(n))
            eps_mix = float(rng.random())
            trace(3, i_gt, i_psi)
            psi, aop = psi_pool[i_psi]
            with no_grad():
                fake = uar_generator(gen, psi, aop).data.reshape(aop.image_shape)
            parts = {}
            r_loss = reg_loss(reg, gt_pool[i_gt], fake, eps_mix,
                              cfg.lambda_gp, parts=parts)
            skipped += _update(reg, opt_reg, r_loss, cfg.lr_adversarial)
            reg_losses.append(float(r_loss.data))
            gps.append(parts["gp"])
            parts = {}
            g_loss = gen_loss(gen, critic, psi, aop, cfg.alpha, parts=parts)
            skipped += _update(gen, opt_gen, g_loss, cfg.lr_adversarial)
            gen_losses.append(float(g_loss.data))
            fits.append(parts["datafit"])
        log.append({"epoch": epoch, "split": "phase3",
                    "loss": float(np.mean(gen_losses)),
                    "lr": cfg.lr_adversarial, "skipped": skipped,
                    "loss_reg": float(np.mean(reg_losses)),
                    "datafit": float(np.mean(fits)),
                    "gp": float(np.mean(gps))})
        epoch += 1
    if cfg.out_dir is not None:
        extra = {"kind": "uar", "mode": mode, "model": model_cfg.to_dict()}
        save_checkpoint(os.path.join(cfg.out_dir, "final"), params, extra=extra)
    if cfg.log_path is not None:
        write_log(cfg.log_path, log)
    return params, log


# ---------------------------------------------------------------- checks

TINY_STT = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                     enc_channels=(2, 3, 4))
TINY_UAR = UarConfig(unroll=2, gamma_channels=4,
                     critic_channels=(4, 4, 4, 4, 4, 4), critic_hidden=8)
# 10 items: every epoch averages 10 draws, past the 8 at which np.mean
# switches to pairwise summation, and batches of 4 leave a short last one
N_ITEMS = 10


def _dataset(n_items, n_steps, seed):
    geom = ScanGeometry(image_size=16, n_steps=n_steps, n_angles_init=8,
                        n_angles_rest=3, n_offsets=23)
    return generate_dataset(geom, n_items, seed=seed)


@pytest.fixture(scope="module")
def data():
    return {"train": _dataset(N_ITEMS, 5, seed=5),
            "val": _dataset(2, 5, seed=99)}


def _tree(root):
    """Every file below root as {relative path: bytes}."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _assert_same_run(got, want, root):
    (params, log), (ref_params, ref_log) = got, want
    assert list(params) == list(ref_params)
    for k in ref_params:
        assert params[k].data.dtype == ref_params[k].data.dtype, k
        assert params[k].data.tobytes() == ref_params[k].data.tobytes(), k
    # repr pins values bit for bit (shortest round-trip), types and key order
    assert [repr(list(row.items())) for row in log] == \
        [repr(list(row.items())) for row in ref_log]
    new, ref = _tree(root / "new"), _tree(root / "ref")
    assert sorted(new) == sorted(ref)
    assert new == ref


def _configs(make, root, **kw):
    return {side: make(out_dir=str(root / side / "ck"),
                       log_path=str(root / side / "log.csv"), **kw)
            for side in ("new", "ref")}


def test_refinement_matches_reference(data, tmp_path, busy_schedule):
    cfg = _configs(TrainConfig, tmp_path, epochs=3, batch_size=4, seed=3,
                   warmup=1, checkpoint_every=2)
    got = training.train_refinement(data["train"], cfg["new"], TINY_STT,
                                     val_dataset=data["val"])
    want = ref_train_refinement(data["train"], cfg["ref"], TINY_STT,
                                val_dataset=data["val"])
    _assert_same_run(got, want, tmp_path)
    ck = _tree(tmp_path / "new" / "ck")
    assert {p.split(os.sep)[0] for p in ck} == {"epoch_002", "final"}
    assert [r["split"] for r in got[1]] == ["train", "val"] * 3


@pytest.fixture
def busy_schedule(monkeypatch):
    """Mixed ground-truth/Landweber inputs, and rollouts of up to 3 steps
    with mixed teacher forcing, from epoch 0 on, in the shipped module and
    in the reference alike."""
    here = sys.modules[__name__]
    for module in (training, here):
        monkeypatch.setattr(module, "gt_ratio", lambda e: 0.7 - 0.2 * e)
        monkeypatch.setattr(module, "rollout_prob", lambda e: 0.6)
        monkeypatch.setattr(module, "max_rollout", lambda e: 3)
        monkeypatch.setattr(module, "teacher_forcing_ratio",
                            lambda e: 0.5 - 0.2 * e)


def test_prediction_matches_reference(data, tmp_path, busy_schedule):
    re_params = init_stt_params(TINY_STT, seed=7)
    cfg = _configs(prediction_train_config, tmp_path, epochs=3, batch_size=4,
                   seed=1, checkpoint_every=1)
    events, ref_events = [], []
    got = training.train_prediction(data["train"], re_params, TINY_STT,
                                    cfg["new"], val_dataset=data["val"],
                                    on_step=events.append)
    want = ref_train_prediction(data["train"], re_params, TINY_STT,
                                cfg["ref"], val_dataset=data["val"],
                                on_step=ref_events.append)
    _assert_same_run(got, want, tmp_path)
    # repr, not only ==: np.int64 sample ids would compare equal to ints
    assert repr(events) == repr(ref_events)
    # the schedule reached multi-step rollouts with both history sources
    assert {e["target"] for e in events} == {2, 3, 4}
    assert {s for e in events for s in e["sources"]} == {"gt", "pred"}
    ck = _tree(tmp_path / "new" / "ck")
    assert {p.split(os.sep)[0] for p in ck} == {"epoch_001", "epoch_002",
                                                "final"}


def test_prediction_without_val_or_checkpoints(data):
    re_params = init_stt_params(TINY_STT, seed=7)
    cfg = prediction_train_config(epochs=2, batch_size=3, seed=2)
    got = training.train_prediction(data["train"], re_params, TINY_STT, cfg)
    want = ref_train_prediction(data["train"], re_params, TINY_STT, cfg)
    assert repr(got[1]) == repr(want[1])
    assert all(got[0][k].data.tobytes() == want[0][k].data.tobytes()
               for k in want[0])


@pytest.fixture(scope="module")
def uar_data():
    return {"static2d": _dataset(N_ITEMS, 3, seed=11),
            "dynamic3d": _dataset(8, 3, seed=12)}


@pytest.mark.parametrize("mode", ["static2d", "dynamic3d"])
@pytest.mark.parametrize("phases", [(2, 2, 2), (0, 0, 2), (1, 0, 1),
                                    (0, 2, 0)],
                         ids=lambda p: "-".join(map(str, p)))
def test_uar_matches_reference(uar_data, tmp_path, mode, phases):
    ds = uar_data[mode]
    p1, p2, p3 = phases
    cfg = _configs(UarTrainConfig, tmp_path, phase1_epochs=p1,
                   phase2_epochs=p2, phase3_epochs=p3, seed=4,
                   lr_warmup=1e-3, lr_adversarial=2e-3)
    trace, ref_trace = [], []
    got = uar.train_uar(ds, mode, cfg["new"], TINY_UAR, sampler_trace=trace)
    want = ref_train_uar(ds, mode, cfg["ref"], TINY_UAR,
                         sampler_trace=ref_trace)
    _assert_same_run(got, want, tmp_path)
    assert trace == ref_trace
    assert len(trace) == len(ds) * sum(phases)
    splits = ["phase1"] * p1 + ["phase2"] * p2 + ["phase3"] * p3
    assert [r["split"] for r in got[1]] == splits


def _poisoned(ds, with_sinograms):
    """ds with NaN ground truth in items 0-2 and, if asked, NaN sinograms
    in items 3-5, so that the updates drawing them are refused."""
    gt = [g.copy() for g in ds.gt]
    sinos = list(ds.sinograms)
    for i in range(3):
        gt[i][:] = np.nan
        if with_sinograms:
            bad = sinos[i + 3]
            sinos[i + 3] = Sinogram([np.full_like(f, np.nan)
                                     for f in bad.frames],
                                    bad.angles, bad.offsets)
    return Dataset(ds.geometry, gt, sinos)


@pytest.mark.parametrize("trainer", ["refine", "predict", "static2d",
                                     "dynamic3d"])
def test_refused_updates_match_reference(data, uar_data, monkeypatch,
                                         trainer):
    """Every row's `skipped` count, and the NaN losses next to it, agree
    with the reference when some updates see non-finite gradients."""
    # the STT trainers then feed only finite frames to the model and meet
    # the NaN ground truth as a target alone
    here = sys.modules[__name__]
    for module in (training, here):
        monkeypatch.setattr(module, "gt_ratio", lambda e: 0.0)
        monkeypatch.setattr(module, "teacher_forcing_ratio", lambda e: 0.0)
    if trainer == "refine":
        ds = _poisoned(data["train"], with_sinograms=False)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
        got = training.train_refinement(ds, cfg, TINY_STT)
        want = ref_train_refinement(ds, cfg, TINY_STT)
    elif trainer == "predict":
        ds = _poisoned(data["train"], with_sinograms=False)
        re_params = init_stt_params(TINY_STT, seed=7)
        cfg = prediction_train_config(epochs=2, batch_size=4, seed=1)
        got = training.train_prediction(ds, re_params, TINY_STT, cfg)
        want = ref_train_prediction(ds, re_params, TINY_STT, cfg)
    else:
        ds = _poisoned(uar_data[trainer], with_sinograms=True)
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=1,
                             phase3_epochs=1, seed=4)
        got = uar.train_uar(ds, trainer, cfg, TINY_UAR)
        want = ref_train_uar(ds, trainer, cfg, TINY_UAR)
    assert repr(got[1]) == repr(want[1])
    assert all(got[0][k].data.tobytes() == want[0][k].data.tobytes()
               for k in want[0])
    assert all(0 < r["skipped"] for r in got[1])
