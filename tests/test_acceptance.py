"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with -v to get the per-criterion pass/fail lines; each test also
prints an [acceptance] line with the measured numbers (visible with -s
or -rA). Criteria 6 and 7 share one desk-scale fixture that trains both
sequence models (a few minutes of CPU) and carry the `slow` marker;
everything else is fast.
"""

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from tcrtomo import autodiff as ad
from tcrtomo.autodiff import Tensor, gradcheck
from tcrtomo.datasets import Sinogram, write_dataset
from tcrtomo.geometry import (MatrixOperator, ScanGeometry, angle_schedule,
                              operator_for_angles)
from tcrtomo.checkpoint import save_checkpoint
from tcrtomo.metrics import psnr
from tcrtomo.phantoms import disc_image, generate_dataset
from tcrtomo.pipeline import (ReconConfig, select_alphas, tcr_reconstruct)
from tcrtomo.solvers import (l1_tcr_fista, l1_tv_tcr_pdhg, l2_tcr,
                             prox_shifted_l1, soft_threshold)
from tcrtomo.stt import SttConfig, init_stt_params, predict_next, stt_apply, \
    stt_forward
from tcrtomo.training import (TrainConfig, gt_ratio, landweber_pairs,
                              lr_cosine, max_rollout, prediction_train_config,
                              rollout_prob, teacher_forcing_ratio,
                              train_prediction, train_refinement)
from tcrtomo.uar import (StaticScanOperator, UarConfig, UarTrainConfig,
                         critic_params, gen_loss, generator_params,
                         init_uar_params, reg_loss, train_uar)

from fresh_process import run_tcrtomo


def report(criterion, detail):
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def _sq(t):
    return ad.mul(t, t)


def _params64(params):
    return {k: Tensor(v.data.astype(np.float64), requires_grad=True)
            for k, v in params.items()}


# ---------------------------------------------------------- criterion 1

def test_01_projector_adjoint_and_chord():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    geoms = [ScanGeometry(64, 10, 20, 3, 100),   # default scale
             ScanGeometry(32, 8, 20, 3, 47),     # desk scale
             ScanGeometry(32, 8, 20, 10, 47),    # desk, dense steps
             ScanGeometry(16, 4, 6, 3, 23)]      # miniature
    worst = 0.0
    for geom in geoms:
        for t in (0, 1, geom.n_steps - 1):
            op = operator_for_angles(angle_schedule(geom, t), geom.offsets,
                                     geom.image_size)
            x = rng.standard_normal(op.in_shape)
            y = rng.standard_normal(op.out_shape)
            ax = op.forward(x)
            aty = op.adjoint(y)
            gap = abs(float(np.sum(ax * y)) - float(np.sum(x * aty)))
            den = float(np.linalg.norm(ax) * np.linalg.norm(y)) + 1e-300
            worst = max(worst, gap / den)
    assert worst <= 1e-6, f"adjoint relative error {worst:.3e}"

    # projecting the unit-disc indicator gives the chord length 2 sqrt(1-s^2)
    chord_worst = {}
    for size in (64, 32):
        img = disc_image(size, radius=1.0)
        offsets = np.linspace(-1.0, 1.0, 2 * size)
        keep = np.abs(offsets) <= 0.8
        expected = 2.0 * np.sqrt(1.0 - offsets[keep] ** 2)
        tol = 2.0 * (2.0 / size)  # two pixel widths
        err = 0.0
        for phi in (0.0, 0.35, math.pi / 4, 1.2, math.pi / 2):
            sino = operator_for_angles([phi], offsets, size).forward(img)[0]
            err = max(err, float(np.max(np.abs(sino[keep] - expected))))
        assert err < tol, f"size {size}: chord error {err:.4f} vs {tol:.4f}"
        chord_worst[size] = err

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("criterion 1 (projector pair)",
           f"adjoint rel err {worst:.2e}; chord err "
           f"{chord_worst[64]:.3f}/{chord_worst[32]:.3f} px-widths tol; "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------- criterion 2

def test_02_solver_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)

    # soft threshold and shifted prox: elementwise closed forms
    v = rng.normal(size=257)
    lam = 0.3
    expect = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
    assert np.max(np.abs(soft_threshold(v, lam) - expect)) <= 1e-6
    anchor = rng.normal(size=257)
    expect = anchor + np.sign(v - anchor) * np.maximum(
        np.abs(v - anchor) - lam, 0.0)
    assert np.max(np.abs(prox_shifted_l1(v, lam, anchor) - expect)) <= 1e-6

    # quadratic coupling, scalar operator: x* = (a psi + alpha prior)/(a^2+alpha)
    op = MatrixOperator(np.array([[2.0]]))
    x, _ = l2_tcr(op, np.array([3.0]), np.array([0.5]), 0.8,
                  x0=np.array([0.5]), tau=1.0 / (4.0 + 0.8), max_iter=500)
    assert abs(x[0] - (2.0 * 3.0 + 0.8 * 0.5) / (4.0 + 0.8)) <= 1e-6

    # identity operator, 5 coordinates: x* = (psi + alpha prior)/(1 + alpha).
    # tau <= 1/(1+alpha) keeps the discrepancy monotone along the path, so
    # the early-stop rule never fires before convergence
    op = MatrixOperator(np.eye(5))
    psi = rng.normal(size=5)
    prior = 0.1 * rng.normal(size=5)
    alpha = 0.7
    x, _ = l2_tcr(op, psi, prior, alpha, x0=prior, tau=0.5, max_iter=2000)
    l2_err = float(np.max(np.abs(x - (psi + alpha * prior) / (1 + alpha))))
    assert l2_err <= 1e-6

    # FISTA optimum for A = I: x* = prior + soft(psi - prior, alpha)
    alpha = 0.4
    x, _ = l1_tcr_fista(op, psi, prior, alpha, max_iter=400)
    fista_err = float(np.max(np.abs(
        x - (prior + soft_threshold(psi - prior, alpha)))))
    assert fista_err <= 1e-6

    # PDHG with zero TV weight minimizes the same objective as FISTA. At
    # alpha = 0.1 the data pull is weaker than alpha everywhere and both
    # return the prior; at alpha = 0.003 both must leave it
    geom = ScanGeometry(32, 8, 20, 3, 47)
    op = operator_for_angles(angle_schedule(geom, 2), geom.offsets, 32)
    img = disc_image(32, radius=0.5, center=(0.1, -0.2), value=0.8)
    psi = op.forward(img)
    prior = img + 0.05 * rng.standard_normal(img.shape)
    gaps = {}
    for alpha in (0.1, 0.003):
        def objective(z):
            return (0.5 * float(np.sum((op.forward(z) - psi) ** 2))
                    + alpha * float(np.sum(np.abs(z - prior))))

        xf, _ = l1_tcr_fista(op, psi, prior, alpha, x0=prior, max_iter=4000)
        xp, _ = l1_tv_tcr_pdhg(op, psi, prior, alpha, 0.0, x0=prior,
                               max_iter=8000)
        gaps[alpha] = gap = abs(objective(xf) - objective(xp))
        assert gap <= 1e-3, f"alpha {alpha}: objective gap {gap:.3e}"
    # the last pair, alpha = 0.003
    assert not np.array_equal(xf, prior) and not np.array_equal(xp, prior)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("criterion 2 (solver oracles)",
           "closed forms <=1e-6; PDHG/FISTA gap "
           + ", ".join(f"{g:.1e} at alpha {a}" for a, g in gaps.items())
           + f"; {elapsed:.1f}s")


# ---------------------------------------------------------- criterion 3

def test_03_gradient_checks():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)

    def away_from_kinks(shape):
        x = rng.normal(size=shape)
        return x + 0.25 * np.sign(x)

    # one check per differentiable building block
    x = _t64(rng.normal(size=(3, 4)))
    w = _t64(rng.normal(size=(4, 5)))
    gradcheck(lambda: ad.tsum(_sq(ad.matmul(x, w))), [x, w], rtol=1e-3)

    a2 = _t64(rng.normal(size=(2, 3, 6, 6)))
    k2 = _t64(0.3 * rng.normal(size=(4, 3, 3, 3)))
    b2 = _t64(rng.normal(size=4))
    gradcheck(lambda: ad.tsum(_sq(ad.conv2d(a2, k2, b2, stride=2,
                                            padding=((1, 1), (1, 0))))),
              [a2, k2, b2], rtol=1e-3, max_coords=6, seed=1)

    a3 = _t64(rng.normal(size=(1, 2, 4, 6, 6)))
    k3 = _t64(0.3 * rng.normal(size=(3, 2, 3, 3, 3)))
    gradcheck(lambda: ad.tsum(_sq(ad.conv3d(a3, k3, stride=(1, 2, 2),
                                        padding=((2, 0), (1, 1), (1, 1))))),
              [a3, k3], rtol=1e-3, max_coords=6, seed=2)

    u2 = _t64(rng.normal(size=(1, 4, 3, 3)))
    uw = _t64(0.3 * rng.normal(size=(4, 2, 3, 3)))
    gradcheck(lambda: ad.tsum(_sq(ad.conv_transpose2d(u2, uw, stride=2,
                                                  padding=((1, 0), (1, 1))))),
              [u2, uw], rtol=1e-3, max_coords=6, seed=3)

    u3 = _t64(rng.normal(size=(1, 3, 2, 3, 3)))
    vw = _t64(0.3 * rng.normal(size=(3, 2, 1, 3, 3)))
    gradcheck(lambda: ad.tsum(_sq(ad.conv_transpose3d(u3, vw))), [u3, vw],
              rtol=1e-3, max_coords=6, seed=4)

    ln_x = _t64(rng.normal(size=(2, 5, 8)))
    ln_g = _t64(1.0 + 0.1 * rng.normal(size=8))
    ln_b = _t64(0.1 * rng.normal(size=8))
    gradcheck(lambda: ad.tsum(_sq(ad.layer_norm(ln_x, ln_g, ln_b))),
              [ln_x, ln_g, ln_b], rtol=1e-3, max_coords=8, seed=5)

    g_in = _t64(away_from_kinks((4, 7)))
    gradcheck(lambda: ad.tsum(_sq(ad.gelu(g_in))), [g_in], rtol=1e-3)
    l_in = _t64(away_from_kinks((4, 7)))
    gradcheck(lambda: ad.tsum(_sq(ad.leaky_relu(l_in, 0.2))), [l_in],
              rtol=1e-3)

    sm = _t64(rng.normal(size=(3, 5)))
    gradcheck(lambda: ad.tsum(_sq(ad.softmax_lastaxis(sm))), [sm], rtol=1e-3)

    q = _t64(0.5 * rng.normal(size=(2, 4, 2, 6)))
    k = _t64(0.5 * rng.normal(size=(2, 4, 2, 6)))
    vv = _t64(rng.normal(size=(2, 4, 2, 6)))
    pos = np.arange(4, dtype=np.float64)
    gradcheck(lambda: ad.tsum(_sq(ad.causal_attention(ad.rope_apply(q, pos),
                                                  ad.rope_apply(k, pos),
                                                  vv))),
              [q, k, vv], rtol=1e-3, max_coords=6, seed=6)

    mat = rng.normal(size=(7, 10))
    lm_in = _t64(rng.normal(size=10))
    gradcheck(lambda: ad.tsum(_sq(ad.linear_map(lm_in, lambda z: mat @ z,
                                            lambda z: mat.T @ z))),
              [lm_in], rtol=1e-3)

    # shape plumbing composite: reshape/transpose/slice/concat/broadcast
    c1 = _t64(rng.normal(size=(2, 3, 4)))
    c2 = _t64(rng.normal(size=(2, 3, 4)))

    def plumbing():
        y = ad.concat([ad.transpose(c1, (1, 0, 2)),
                       ad.transpose(c2, (1, 0, 2))], axis=2)
        y = ad.reshape(ad.tslice(y, (slice(0, 2),)), (2, 16))
        y = ad.add(y, ad.broadcast_to(_t64(np.ones((1, 16))), (2, 16)))
        y = ad.sqrt(ad.add(ad.mul(y, y), ad.scale(Tensor(np.ones((2, 16))),
                                                  0.5)))
        return ad.tmean(y, axis=(0, 1))

    gradcheck(plumbing, [c1, c2], rtol=1e-3, max_coords=6, seed=7)

    # full sequence model, gradients through every stage
    cfg = SttConfig(model_dim=8, heads=2, layers=1, image_size=8,
                    enc_channels=(2, 3, 4))
    params = _params64(init_stt_params(cfg, seed=8))
    frames = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
    target = rng.normal(size=(1, 3, 8, 8))

    def stt_loss():
        return ad.mse_loss(stt_apply(params, cfg, frames), Tensor(target))

    gradcheck(stt_loss,
              [frames, params["enc0.w"], params["embed.w"],
               params["blk0.qkv.w"], params["blk0.mlp1.b"],
               params["final_ln.g"], params["dec1.w"], params["skip2.w"],
               params["head.w"], params["head.b"]],
              eps=1e-4, rtol=1e-3, max_coords=4, seed=0)

    # full adversarial baseline: generator loss and critic loss
    tiny = UarConfig(unroll=2, gamma_channels=2, critic_channels=(4,) * 6,
                     critic_hidden=8)
    geom = ScanGeometry(16, 3, 5, 3, 23)
    aop = StaticScanOperator(operator_for_angles(angle_schedule(geom, 0),
                                                 geom.offsets, 16))
    uparams = _params64(init_uar_params("static2d", tiny, seed=3))
    ugen, ureg = generator_params(uparams), critic_params(uparams)
    data_rng = np.random.default_rng(100)
    psi = data_rng.normal(size=aop.data_shape)

    gen_subset = [uparams[n] for n in
                  ("gen.d0.c0.w", "gen.p1.c2.w", "gen.sigma0", "gen.tau1",
                   "reg.c3.w", "reg.fc2.w")]
    gradcheck(lambda: gen_loss(ugen, ureg, psi, aop, alpha=0.1),
              gen_subset, eps=1e-5, rtol=1e-3, max_coords=4, seed=0)

    gt_img = data_rng.normal(size=(16, 16))
    gen_img = data_rng.normal(size=(16, 16))
    reg_subset = [uparams[n] for n in
                  ("reg.c0.w", "reg.c5.w", "reg.fc1.w", "reg.fc2.w")]
    gradcheck(lambda: reg_loss(ureg, gt_img, gen_img, 0.3, 10.0),
              reg_subset, eps=1e-5, rtol=1e-3, max_coords=3, seed=0)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("criterion 3 (gradient checks)",
           f"all building blocks + both models at rtol 1e-3; {elapsed:.1f}s")


# ---------------------------------------------------------- criterion 4

def _tiny_models(seed=3):
    cfg = SttConfig(model_dim=16, heads=2, layers=2, image_size=16)
    return init_stt_params(cfg, seed=seed), cfg


def test_04_causality_probes():
    t0 = time.monotonic()
    params, cfg = _tiny_models()
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(6, 16, 16)).astype(np.float32)
    base = stt_forward(params, cfg, frames)
    for k in (1, 3, 5):
        pert = frames.copy()
        pert[k:] += rng.normal(size=pert[k:].shape).astype(np.float32)
        out = stt_forward(params, cfg, pert)
        assert np.array_equal(out[:k], base[:k]), \
            f"future perturbation at {k} leaked into earlier outputs"

    # instrumented sequential reconstruction: dataflow audit
    geom = ScanGeometry(16, 5, 6, 3, 23)
    ds = generate_dataset(geom, 1, seed=5)
    sino = ds.sinograms[0]
    rcfg = ReconConfig(image_size=16, solver="L1", alpha_init=0.1,
                       alpha_rest=0.1, max_iter_l1=30)
    re_model = _tiny_models(seed=6)
    pre_model = _tiny_models(seed=7)
    events = []
    res1 = tcr_reconstruct(sino, rcfg, re_model, pre_model,
                           trace=events.append)
    predicts = [e for e in events if e[0] == "predict"]
    assert [e[1] for e in predicts] == [1, 2, 3, 4]
    for e in predicts:
        assert e[2] == tuple(range(e[1])), f"prediction at {e[1]} saw {e[2]}"
    for e in events:
        if e[0] == "initial":
            assert e[1] in (0, 1)
    for t in range(1, 5):
        i_pred = events.index(("predict", t, tuple(range(t))))
        i_solve = events.index(("solve", t, "loop"))
        assert i_pred < i_solve
    assert events.index(("refine", (0, 1))) < events.index(("solve", 0,
                                                            "init"))

    # end to end: perturbing measurements from step k on leaves the
    # reconstructions of steps < k bitwise unchanged
    k = 3
    frames2 = [f.copy() for f in sino.frames]
    for t in range(k, 5):
        frames2[t] = frames2[t] + rng.normal(size=frames2[t].shape)
    sino2 = Sinogram(frames2, sino.angles, sino.offsets)
    res2 = tcr_reconstruct(sino2, rcfg, re_model, pre_model)
    assert np.array_equal(res1.reconstructions[:k], res2.reconstructions[:k])
    assert not np.array_equal(res1.reconstructions[k], res2.reconstructions[k])

    elapsed = time.monotonic() - t0
    report("criterion 4 (causality)",
           f"bitwise prefix invariance + dataflow audit; {elapsed:.1f}s")


# ---------------------------------------------------------- criterion 5

def test_05_schedules_closed_form():
    for e in range(100):
        gt_expect = 1.0 if e < 10 else (1.0 - (e - 10) / 37.5 if e < 40
                                        else 0.2)
        assert gt_ratio(e) == pytest.approx(gt_expect, abs=1e-12)
        assert teacher_forcing_ratio(e) == pytest.approx(
            max(0.0, 0.9 * (1.0 - e / 85.0)), abs=1e-12)
        assert max_rollout(e) == (2 if e < 30 else 4 if e < 70
                                  else 6 if e < 90 else 8)
        assert rollout_prob(e) == pytest.approx(min(1.0, e / 30.0), abs=1e-12)

        # refinement rate: 10-epoch warmup to 1e-4, cosine tail to 1e-6
        if e < 10:
            lr_expect = 1e-4 * (e + 1) / 10
        else:
            frac = (e - 10) / 90
            lr_expect = 1e-6 + 0.5 * (1e-4 - 1e-6) * (1 + math.cos(
                math.pi * frac))
        assert lr_cosine(e, 10, 100, 1e-6, 1e-4) == pytest.approx(
            lr_expect, rel=1e-12)

        # prediction rate: constant 3e-5 until epoch 40, cosine tail
        if e <= 40:
            lrp_expect = 3e-5
        else:
            frac = (e - 40) / 60
            lrp_expect = 1e-6 + 0.5 * (3e-5 - 1e-6) * (1 + math.cos(
                math.pi * frac))
        assert lr_cosine(e, 0, 100, 1e-6, 3e-5, hold_until=40) == \
            pytest.approx(lrp_expect, rel=1e-12)

    # anchor points
    assert gt_ratio(40) == pytest.approx(0.2, abs=1e-12)
    assert teacher_forcing_ratio(85) == 0.0
    assert lr_cosine(10, 10, 100, 1e-6, 1e-4) == pytest.approx(1e-4)
    assert lr_cosine(20, 0, 100, 1e-6, 3e-5, hold_until=40) == \
        pytest.approx(3e-5)
    report("criterion 5 (schedules)",
           "all five schedules match closed forms on epochs 0..99 + anchors")


# ------------------------------------------------- criteria 6 and 7

DESK_GEOM = ScanGeometry(32, 8, 20, 3, 47)
DESK_GEOM_10 = ScanGeometry(32, 8, 20, 10, 47)


def _rollout(pre_params, pre_cfg, start_pair, n_frames):
    """Prediction-only sequence: autoregressive rollout, no measurements."""
    frames = [np.asarray(start_pair[0], dtype=np.float32),
              np.asarray(start_pair[1], dtype=np.float32)]
    for _ in range(2, n_frames):
        frames.append(predict_next(pre_params, pre_cfg, np.stack(frames)))
    return np.stack(frames)


@pytest.fixture(scope="module")
def desk():
    """Desk-scale protocol: train both models, reconstruct held-out scans."""
    t0 = time.monotonic()
    train_ds = generate_dataset(DESK_GEOM, 200, seed=101, split="train")
    val_ds = generate_dataset(DESK_GEOM, 3, seed=102, split="val")
    test_ds = generate_dataset(DESK_GEOM, 20, seed=103, split="test")
    test10_ds = generate_dataset(DESK_GEOM_10, 20, seed=103, split="test")

    mcfg = SttConfig(model_dim=64, heads=4, layers=2, image_size=32)
    re_params, _ = train_refinement(
        train_ds, TrainConfig(epochs=30, batch_size=8, seed=7), mcfg)
    pre_params, _ = train_prediction(
        train_ds, re_params, mcfg,
        prediction_train_config(epochs=30, batch_size=8, seed=7), mcfg)
    refine_model = (re_params, mcfg)
    predict_model = (pre_params, mcfg)

    base_cfg = ReconConfig(image_size=32, solver="L1")
    grid = (0.03, 0.1, 0.3)
    a_init, a_rest = select_alphas(val_ds, base_cfg, grid, grid,
                                   refine_model, predict_model)
    rcfg = ReconConfig(image_size=32, solver="L1", alpha_init=a_init,
                       alpha_rest=a_rest)

    res3 = [tcr_reconstruct(s, rcfg, refine_model, predict_model)
            for s, g in zip(test_ds.sinograms, test_ds.gt)]
    res10 = [tcr_reconstruct(s, rcfg, refine_model, predict_model)
             for s, g in zip(test10_ds.sinograms, test10_ds.gt)]
    lw_test = landweber_pairs(test_ds)

    return SimpleNamespace(test_ds=test_ds, test10_ds=test10_ds,
                           res3=res3, res10=res10, lw_test=lw_test,
                           predict_model=predict_model, alphas=(a_init,
                                                                a_rest),
                           elapsed=time.monotonic() - t0)


@pytest.mark.slow
def test_06_reconstruction_beats_pure_prediction(desk):
    n_frames = DESK_GEOM.n_steps
    pre_params, pre_cfg = desk.predict_model
    tcr_last, roll_last = [], []
    for i, res in enumerate(desk.res3):
        gt = np.asarray(desk.test_ds.gt[i], dtype=np.float64)
        rolled = _rollout(pre_params, pre_cfg, desk.lw_test[i], n_frames)
        tcr_last.append(psnr(gt[-1], res.reconstructions[-1]))
        roll_last.append(psnr(gt[-1], rolled[-1]))
    tcr_mean = float(np.mean(tcr_last))
    roll_mean = float(np.mean(roll_last))
    assert tcr_mean >= roll_mean, \
        f"last-frame psnr {tcr_mean:.2f} < rollout {roll_mean:.2f}"

    # solving from the prediction must not lose data consistency
    ok = total = 0
    for res, sino in zip(desk.res3, desk.test_ds.sinograms):
        for t in range(1, n_frames):
            op = operator_for_angles(sino.angles[t], sino.offsets, 32)
            d_rec = np.linalg.norm(op.forward(res.reconstructions[t])
                                   - sino.frames[t])
            d_pri = np.linalg.norm(
                op.forward(res.predictions[t - 1].astype(np.float64))
                - sino.frames[t])
            ok += d_rec <= d_pri + 1e-12
            total += 1
    frac = ok / total
    assert frac >= 0.95, f"discrepancy improved on only {frac:.1%} of steps"
    assert desk.elapsed <= 7200.0
    report("criterion 6 (desk-scale trend)",
           f"last-frame psnr {tcr_mean:.2f} vs rollout {roll_mean:.2f} dB; "
           f"discrepancy non-increase {frac:.1%}; alphas {desk.alphas}; "
           f"protocol {desk.elapsed / 60:.1f} min")


@pytest.mark.slow
def test_07_more_angles_help(desk):
    def all_frames_mean(results, ds):
        vals = []
        for res, gt in zip(results, ds.gt):
            gt = np.asarray(gt, dtype=np.float64)
            vals.append(np.mean([psnr(gt[t], res.reconstructions[t])
                                 for t in range(gt.shape[0])]))
        return float(np.mean(vals))

    mean3 = all_frames_mean(desk.res3, desk.test_ds)
    mean10 = all_frames_mean(desk.res10, desk.test10_ds)
    assert mean10 > mean3, f"10-angle {mean10:.2f} <= 3-angle {mean3:.2f}"
    report("criterion 7 (more data helps)",
           f"all-frames psnr {mean10:.2f} (10 angles) > {mean3:.2f} "
           "(3 angles) dB")


# ---------------------------------------------------------- criterion 8

def test_08_adversarial_baseline_plumbing(tmp_path):
    t0 = time.monotonic()

    # zero critic: the loss reduces to the gradient penalty at gradient
    # zero, lambda_gp * (0 - 1)^2 = 10
    params = init_uar_params("static2d", seed=11)
    reg = critic_params(params)
    for tensor in reg.values():
        tensor.data[...] = 0.0
    rng = np.random.default_rng(12)
    loss = reg_loss(reg, rng.random((16, 16)), rng.random((16, 16)), 0.5)
    assert abs(float(loss.data) - 10.0) <= 1e-4

    # identity scan + pass-through generator: data fidelity cancels exactly
    class IdentityScan:
        image_shape = (8, 8)
        data_shape = (8, 8)

        def forward(self, x):
            return np.asarray(x, dtype=np.float64)

        def adjoint(self, y):
            return np.asarray(y, dtype=np.float64)

        def fbp(self, psi):
            return np.asarray(psi, dtype=np.float64)

    idp = init_uar_params("static2d", seed=13)
    for name, tensor in idp.items():
        if name.startswith("gen.") and ".c2." in name:
            tensor.data[...] = 0.0
        if name.startswith("reg."):
            tensor.data[...] = 0.0
    psi = rng.random((8, 8))
    loss = gen_loss(generator_params(idp), critic_params(idp), psi,
                    IdentityScan(), alpha=0.1)
    assert float(loss.data) == 0.0

    # unpaired sampling audit: ground truth and measurements are drawn
    # from independent streams
    geom = ScanGeometry(16, 3, 5, 3, 23)
    ds = generate_dataset(geom, 4, seed=14)
    tiny = UarConfig(unroll=2, gamma_channels=4, critic_channels=(4,) * 6,
                     critic_hidden=8)
    trace = []
    train_uar(ds, "static2d",
              cfg=UarTrainConfig(phase1_epochs=2, phase2_epochs=1,
                                 phase3_epochs=2, seed=15),
              model_cfg=tiny, sampler_trace=trace)
    p1 = [e for e in trace if e[0] == 1]
    p2 = [e for e in trace if e[0] == 2]
    p3 = [e for e in trace if e[0] == 3]
    assert p1 and p2 and p3
    assert all(e[1] == -1 for e in p2)  # generator warmup never sees truth
    adversarial = p1 + p3
    assert all(0 <= e[2] < 4 for e in adversarial)
    assert all(0 <= e[1] < 4 for e in adversarial)
    assert any(e[1] != e[2] for e in adversarial), "streams look paired"

    # one-phantom smoke run through all three phases at default size
    smoke_ds = generate_dataset(geom, 1, seed=16)
    out = tmp_path / "uar"
    params, log = train_uar(
        smoke_ds, "static2d",
        cfg=UarTrainConfig(seed=17, out_dir=str(out),
                           log_path=str(out / "log.csv")))
    phases = {row["split"] for row in log}
    assert phases == {"phase1", "phase2", "phase3"}
    assert (out / "final" / "weights.f32").exists()

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("criterion 8 (adversarial baseline)",
           f"loss identities, sampler audit, 3-phase smoke; {elapsed:.1f}s")


# ---------------------------------------------------------- criterion 9

def _run(args):
    proc = run_tcrtomo(*args)
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree(path):
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def test_09_determinism(tmp_path):
    t0 = time.monotonic()

    a, b = tmp_path / "gen_a", tmp_path / "gen_b"
    for out in (a, b):
        _run(["gen-data", "--preset", "desk", "--seed", "7", "--out",
              str(out)])
    assert _tree(a) == _tree(b), "repeated data generation differs"

    # deterministic reconstruction on a small scan set with stored models
    geom = ScanGeometry(16, 4, 6, 3, 23)
    ds = generate_dataset(geom, 2, seed=21)
    data_dir = tmp_path / "data"
    write_dataset(ds, str(data_dir))
    cfg = SttConfig(model_dim=16, heads=2, layers=1, image_size=16)
    for kind, seed in (("refine", 22), ("predict", 23)):
        save_checkpoint(str(tmp_path / kind), init_stt_params(cfg, seed=seed),
                        extra={"kind": kind, "model": cfg.to_dict()})
    cfg_path = tmp_path / "recon.json"
    cfg_path.write_text(json.dumps({"recon": {"max_iter_l1": 30}}))
    r1, r2 = tmp_path / "rec_a", tmp_path / "rec_b"
    for out in (r1, r2):
        _run(["reconstruct", "--config", str(cfg_path), "--input",
              str(data_dir), "--refine", str(tmp_path / "refine"),
              "--predict", str(tmp_path / "predict"), "--out", str(out),
              "--deterministic"])
    assert _tree(r1) == _tree(r2), "deterministic reconstruction differs"

    elapsed = time.monotonic() - t0
    report("criterion 9 (determinism)",
           f"gen-data and --deterministic reconstruct byte-identical; "
           f"{elapsed:.1f}s")
