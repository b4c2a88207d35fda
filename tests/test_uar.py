import csv
import os
import tracemalloc

import numpy as np
import pytest

from tcrtomo import uar
from tcrtomo.autodiff import Tensor, gradcheck, no_grad
from tcrtomo.checkpoint import load_checkpoint
from tcrtomo.datasets import Dataset
from tcrtomo.errors import ConfigError
from tcrtomo.geometry import ScanGeometry, operator_for_angles
from tcrtomo.phantoms import generate_dataset
from tcrtomo.spec import fields_from_dict
from tcrtomo.uar import (MODES, SequenceScanOperator, StaticScanOperator,
                         UarConfig, UarTrainConfig, critic_params,
                         critic_value, gen_loss, generator_params,
                         init_uar_params, reg_loss,
                         train_uar, uar_generator, uar_reconstruct)
from tcrtomo.uar import _critic_input_grad_norm

TINY = UarConfig(unroll=2, gamma_channels=4, critic_channels=(4, 4, 4, 4, 4, 4),
                 critic_hidden=8)


def _static_op(size=16, n_angles=5, n_offsets=23):
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    offsets = np.linspace(-1.0, 1.0, n_offsets)
    return StaticScanOperator(operator_for_angles(angles, offsets, size))


def _f64(params):
    return {k: Tensor(t.data.astype(np.float64), requires_grad=True)
            for k, t in params.items()}


@pytest.fixture(scope="module")
def tiny_dataset():
    geom = ScanGeometry(image_size=16, n_steps=3, n_angles_init=5,
                        n_angles_rest=3, n_offsets=23)
    return generate_dataset(geom, 4, seed=11)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            UarConfig(unroll=0)
        with pytest.raises(ConfigError):
            UarConfig(gamma_channels=0)
        with pytest.raises(ConfigError):
            UarConfig(critic_channels=(8, 8, 8))
        with pytest.raises(ConfigError):
            UarTrainConfig(phase2_epochs=-1)
        with pytest.raises(ConfigError):
            UarTrainConfig(phase1_epochs=0, phase2_epochs=0, phase3_epochs=0)
        with pytest.raises(ConfigError):
            UarTrainConfig(lr_warmup=0.0)
        with pytest.raises(ConfigError):
            init_uar_params("volumetric")

    def test_roundtrip(self):
        cfg = UarConfig(unroll=3, gamma_channels=8,
                        critic_channels=(2, 4, 6, 8, 10, 12), critic_hidden=5)
        assert fields_from_dict(UarConfig, cfg.to_dict()) == cfg

    def test_param_layout(self):
        params = init_uar_params("static2d", TINY, seed=0)
        # dual nets read (state, step, projection, data), primal nets
        # (image, step, backprojection)
        assert params["gen.d0.c0.w"].shape == (4, 4, 3, 3)
        assert params["gen.p0.c0.w"].shape == (4, 3, 3, 3)
        assert params["gen.p1.c2.w"].shape == (1, 4, 3, 3)
        assert float(params["gen.sigma0"].data[0]) == pytest.approx(0.01)
        assert float(params["gen.tau1"].data[0]) == pytest.approx(0.01)
        assert params["reg.c0.w"].shape == (4, 1, 3, 3)
        assert params["reg.fc1.w"].shape == (4, 8)
        assert params["reg.fc2.w"].shape == (8, 1)
        dyn = init_uar_params("dynamic3d", TINY, seed=0)
        assert dyn["gen.d0.c0.w"].shape == (4, 4, 3, 3, 3)
        assert all(t.data.dtype == np.float32 for t in params.values())

    def test_init_determinism(self):
        a = init_uar_params("static2d", TINY, seed=4)
        b = init_uar_params("static2d", TINY, seed=4)
        c = init_uar_params("static2d", TINY, seed=5)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


class TestSequenceOperator:
    def test_padding_layout(self):
        size = 16
        offsets = np.linspace(-1.0, 1.0, 23)
        ops = [operator_for_angles(np.linspace(0, np.pi, n, endpoint=False),
                                   offsets, size) for n in (5, 5, 3)]
        aop = SequenceScanOperator(ops)
        assert aop.data_shape == (3, 5, 23)
        rng = np.random.default_rng(0)
        x = rng.random((3, size, size))
        y = aop.forward(x)
        # step 2 measured 3 angles; its two padding rows are exactly zero
        assert np.array_equal(y[2, 3:], np.zeros((2, 23)))
        assert np.allclose(y[2, :3], ops[2].forward(x[2]))
        # the adjoint never reads padding rows
        y_dirty = y.copy()
        y_dirty[2, 3:] = 1e6
        assert np.array_equal(aop.adjoint(y), aop.adjoint(y_dirty))
        back = aop.adjoint(y)
        assert np.allclose(back[1], ops[1].adjoint(y[1]))

    def test_pad_validates_frames(self):
        size = 16
        offsets = np.linspace(-1.0, 1.0, 23)
        ops = [operator_for_angles(np.linspace(0, np.pi, n, endpoint=False),
                                   offsets, size) for n in (5, 3)]
        aop = SequenceScanOperator(ops)
        frames = [np.zeros((5, 23)), np.zeros((3, 23))]
        assert aop.pad(frames).shape == (2, 5, 23)
        with pytest.raises(ValueError):
            aop.pad(frames[:1])
        with pytest.raises(ValueError):
            aop.pad([np.zeros((5, 23)), np.zeros((4, 23))])

    def test_mismatched_steps_rejected(self):
        offsets = np.linspace(-1.0, 1.0, 23)
        a = operator_for_angles(np.array([0.0]), offsets, 16)
        b = operator_for_angles(np.array([0.0]), offsets, 8)
        with pytest.raises(ValueError):
            SequenceScanOperator([a, b])
        with pytest.raises(ValueError):
            SequenceScanOperator([])


class TestGenerator:
    def test_output_shapes(self):
        op = _static_op()
        params = init_uar_params("static2d", TINY, seed=1)
        psi = op.forward(np.ones((16, 16)) * 0.3)
        assert uar_reconstruct(params, psi, op).shape == (16, 16)

        offsets = np.linspace(-1.0, 1.0, 23)
        ops = [operator_for_angles(np.linspace(0, np.pi, n, endpoint=False),
                                   offsets, 16) for n in (5, 5, 3)]
        aop = SequenceScanOperator(ops)
        dyn = init_uar_params("dynamic3d", TINY, seed=1)
        psi3 = aop.forward(np.ones((3, 16, 16)) * 0.3)
        assert uar_reconstruct(dyn, psi3, aop).shape == (3, 16, 16)

    def test_identity_wiring(self):
        # zeroed final convs make both residual nets no-ops, so the
        # unrolled loop returns its starting point untouched
        op = _static_op()
        params = init_uar_params("static2d", TINY, seed=1)
        for name, t in params.items():
            if name.startswith("gen.") and ".c2." in name:
                t.data[...] = 0.0
        rng = np.random.default_rng(2)
        psi = op.forward(rng.random((16, 16)))
        out = uar_reconstruct(params, psi, op)
        assert np.array_equal(out, op.fbp(psi).astype(np.float32))

    def test_depth_is_live(self):
        op = _static_op(size=12, n_angles=3, n_offsets=17)
        shallow = init_uar_params(
            "static2d", UarConfig(unroll=1, gamma_channels=2,
                                  critic_channels=(2,) * 6, critic_hidden=4),
            seed=6)
        deep = init_uar_params(
            "static2d", UarConfig(unroll=20, gamma_channels=2,
                                  critic_channels=(2,) * 6, critic_hidden=4),
            seed=6)
        # at init every depth returns the FBP; move the last convs off zero
        rng = np.random.default_rng(3)
        for params in (shallow, deep):
            for name, t in params.items():
                if ".c2.w" in name:
                    t.data[...] = rng.normal(0.0, 0.1, t.data.shape)
        psi = op.forward(rng.random((12, 12)))
        a = uar_reconstruct(shallow, psi, op)
        b = uar_reconstruct(deep, psi, op)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_random_init_returns_fbp(self, mode):
        offsets = np.linspace(-1.0, 1.0, 23)
        ops = [operator_for_angles(np.linspace(0, np.pi, n, endpoint=False),
                                   offsets, 16) for n in (5, 3)]
        aop = (SequenceScanOperator(ops) if mode == "dynamic3d"
               else StaticScanOperator(ops[0]))
        params = init_uar_params(mode, TINY, seed=4)
        rng = np.random.default_rng(5)
        psi = aop.forward(rng.random(aop.image_shape))
        out = uar_reconstruct(params, psi, aop)
        assert np.array_equal(out, aop.fbp(psi).astype(np.float32))

    def test_shape_mismatch_rejected(self):
        op = _static_op()
        params = init_uar_params("static2d", TINY, seed=1)
        with pytest.raises(ValueError):
            uar_generator(params, np.zeros((4, 23)), op)

    def test_mode_mismatch_rejected(self):
        op = _static_op()
        dyn = init_uar_params("dynamic3d", TINY, seed=1)
        with pytest.raises(ValueError):
            uar_generator(dyn, np.zeros(op.data_shape), op)

    def test_reconstruct_matches_graph(self):
        op = _static_op()
        params = init_uar_params("static2d", TINY, seed=9)
        psi = op.forward(np.full((16, 16), 0.4))
        with no_grad():
            node = uar_generator(params, psi, op)
        assert np.array_equal(uar_reconstruct(params, psi, op),
                              node.data.reshape(16, 16))

    def test_taped_output_matches_reconstruct(self):
        """The trainer's phase 3 reads the critic's fake sample off the
        taped graph it then differentiates; it must be the untaped one."""
        op = _static_op()
        params = init_uar_params("static2d", TINY, seed=9)
        psi = op.forward(np.full((16, 16), 0.4))
        node = uar_generator(params, psi, op)
        assert node.requires_grad
        assert np.array_equal(uar_reconstruct(params, psi, op),
                              node.data.reshape(16, 16))

    def test_desk_generator_tape_size(self):
        """A taped desk generator pass (unroll 20, 32 px, 20 angles) keeps
        at most 48 MiB alive, by tracemalloc: each conv tapes its padded
        input, not im2col columns 9 times its size.  It measures 40.8 MiB,
        so the bound leaves 7.2 MiB (18%); with columns taped, 118.4 MiB."""
        op = _static_op(size=32, n_angles=20, n_offsets=47)
        params = init_uar_params("static2d", seed=0)
        psi = op.forward(np.full((32, 32), 0.4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            theta = uar_generator(params, psi, op)
            taped = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert theta.requires_grad
        assert taped <= 48 * 2 ** 20, f"{taped / 2 ** 20:.1f} MiB"


class TestModeDuality:
    def test_static_equals_length_one_dynamic(self):
        # a length-1 sequence with temporally singleton kernels must
        # reproduce the 2-D network exactly (up to conv summation order)
        op2 = _static_op()
        aop = SequenceScanOperator([op2.op])
        static = init_uar_params("static2d", TINY, seed=8)
        dynamic = {}
        for name, t in static.items():
            if t.data.ndim == 4:
                dynamic[name] = Tensor(t.data[:, :, None], requires_grad=True)
            else:
                dynamic[name] = Tensor(t.data.copy(), requires_grad=True)
        rng = np.random.default_rng(4)
        frame = rng.random((16, 16))
        psi2 = op2.forward(frame)
        psi3 = aop.pad([psi2])
        rec2 = uar_reconstruct(static, psi2, op2)
        rec3 = uar_reconstruct(dynamic, psi3, aop)
        assert rec3.shape == (1, 16, 16)
        assert np.allclose(rec2, rec3[0], rtol=1e-6, atol=1e-6)
        r2 = float(critic_value(critic_params(static), frame).data)
        r3 = float(critic_value(critic_params(dynamic),
                                frame[None].astype(np.float64)).data)
        assert r2 == pytest.approx(r3, rel=1e-6, abs=1e-6)


class TestCriticLosses:
    def test_zero_network_loss_is_ten(self):
        params = init_uar_params("static2d", TINY, seed=0)
        reg = critic_params(params)
        for t in reg.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(1)
        val = reg_loss(reg, rng.random((16, 16)), rng.random((16, 16)), 0.42)
        assert abs(float(val.data) - 10.0) <= 1e-4

    def test_zero_network_loss_is_ten_dynamic(self):
        params = init_uar_params("dynamic3d", TINY, seed=0)
        reg = critic_params(params)
        for t in reg.values():
            t.data[...] = 0.0
        rng = np.random.default_rng(1)
        val = reg_loss(reg, rng.random((3, 12, 12)), rng.random((3, 12, 12)),
                       0.1)
        assert abs(float(val.data) - 10.0) <= 1e-4

    def test_identical_samples_leave_only_penalty(self):
        params = init_uar_params("static2d", TINY, seed=2)
        reg = critic_params(params)
        rng = np.random.default_rng(7)
        x = rng.random((16, 16))
        parts = {}
        val = reg_loss(reg, x, x.copy(), 0.5, parts=parts)
        assert parts["r_gt"] == parts["r_gen"]
        assert float(val.data) == pytest.approx(parts["gp"], rel=1e-6)

    def test_linear_critic_closed_form(self):
        # pass-through critic: every conv keeps the 1x1 pixel via its
        # center tap, both dense layers forward the single channel, so
        # R(x) = x on positive scalars and the lambda = 0 loss is the
        # plain difference of the two samples
        params = init_uar_params("static2d", TINY, seed=0)
        reg = critic_params(params)
        for t in reg.values():
            t.data[...] = 0.0
        for j in range(6):
            reg[f"reg.c{j}.w"].data[0, 0, 1, 1] = 1.0
        reg["reg.fc1.w"].data[0, 0] = 1.0
        reg["reg.fc2.w"].data[0, 0] = 1.0
        gt = np.full((1, 1), 0.7)
        gen = np.full((1, 1), 0.3)
        val = reg_loss(reg, gt, gen, 0.5, lambda_gp=0.0)
        assert float(val.data) == pytest.approx(0.4, abs=1e-7)

    def test_eps_and_shape_validation(self):
        params = init_uar_params("static2d", TINY, seed=0)
        reg = critic_params(params)
        x = np.zeros((8, 8))
        with pytest.raises(ValueError):
            reg_loss(reg, x, x, -0.1)
        with pytest.raises(ValueError):
            reg_loss(reg, x, x, 1.1)
        with pytest.raises(ValueError):
            reg_loss(reg, x, np.zeros((4, 4)), 0.5)

    def test_penalty_gradient_chain_matches_tape(self):
        # oracle: differentiate the critic with the tape at the same
        # point; the hand-built chain must give the same input gradient
        # norm up to the epsilon guard inside the sqrt
        params = _f64(critic_params(init_uar_params("static2d", TINY, seed=3)))
        rng = np.random.default_rng(9)
        mix = rng.random((16, 16))
        xt = Tensor(mix[None, None], requires_grad=True)
        critic_value(params, xt).backward()
        expected = float(np.sqrt(np.sum(xt.grad ** 2) + 1e-12))
        chain = float(_critic_input_grad_norm(params, mix).data)
        assert chain == pytest.approx(expected, rel=1e-9)

    def test_reg_loss_gradients_match_finite_differences(self):
        size = 12
        rng = np.random.default_rng(100)
        gt = rng.random((size, size))
        fake = rng.random((size, size))
        for seed in (0, 1):
            cfg = UarConfig(unroll=1, gamma_channels=2,
                            critic_channels=(2,) * 6, critic_hidden=4)
            reg = _f64(critic_params(init_uar_params("static2d", cfg,
                                                     seed=seed)))
            gradcheck(lambda: reg_loss(reg, gt, fake, 0.37, 10.0),
                      list(reg.values()), eps=1e-5, rtol=1e-3,
                      max_coords=3, seed=seed)


class TestGenLoss:
    def test_alpha_zero_is_pure_data_fidelity(self):
        op = _static_op(size=12, n_angles=3, n_offsets=17)
        cfg = UarConfig(unroll=1, gamma_channels=2, critic_channels=(2,) * 6,
                        critic_hidden=4)
        params = init_uar_params("static2d", cfg, seed=5)
        gen = generator_params(params)
        reg = critic_params(params)
        rng = np.random.default_rng(6)
        psi = op.forward(rng.random((12, 12)))
        val = gen_loss(gen, reg, psi, op, alpha=0.0)
        rec = uar_reconstruct(gen, psi, op)
        expected = float(np.sum((op.forward(rec) - psi) ** 2))
        assert float(val.data) == pytest.approx(expected, rel=1e-5)

    def test_perfect_generator_scores_zero(self):
        class IdentityScan:
            image_shape = (8, 8)
            data_shape = (8, 8)

            def forward(self, x):
                return np.asarray(x, dtype=np.float64)

            def adjoint(self, y):
                return np.asarray(y, dtype=np.float64)

            def fbp(self, psi):
                return np.asarray(psi, dtype=np.float64)

        params = init_uar_params("static2d", TINY, seed=0)
        for name, t in params.items():
            if name.startswith("gen.") and ".c2." in name:
                t.data[...] = 0.0
            if name.startswith("reg."):
                t.data[...] = 0.0
        rng = np.random.default_rng(8)
        psi = rng.random((8, 8))
        val = gen_loss(generator_params(params), critic_params(params),
                       psi, IdentityScan(), alpha=0.1)
        assert float(val.data) == 0.0

    def test_gradients_match_finite_differences(self):
        cfg = UarConfig(unroll=2, gamma_channels=2, critic_channels=(2,) * 6,
                        critic_hidden=4)
        params = _f64(init_uar_params("static2d", cfg, seed=3))
        op = _static_op(size=12, n_angles=4, n_offsets=17)
        rng = np.random.default_rng(5)
        psi = op.forward(rng.random((12, 12)))
        gen = generator_params(params)
        reg = critic_params(params)
        subset = [params["gen.p0.c0.w"], params["gen.p1.c2.b"],
                  params["gen.d0.c1.w"], params["gen.sigma0"],
                  params["gen.tau1"], params["reg.c3.w"], params["reg.fc2.w"]]
        gradcheck(lambda: gen_loss(gen, reg, psi, op, alpha=0.1),
                  subset, eps=1e-5, rtol=1e-3, max_coords=4, seed=0)


class TestTraining:
    def test_plumbing_one_sample(self, tmp_path, tiny_dataset):
        ds = tiny_dataset
        one = Dataset(ds.geometry, ds.gt[:1], ds.sinograms[:1])
        out = tmp_path / "uar"
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=1, phase3_epochs=1,
                             seed=0, out_dir=str(out),
                             log_path=str(tmp_path / "uar.csv"))
        params, log = train_uar(one, "static2d", cfg, TINY)
        assert [row["split"] for row in log] == ["phase1", "phase2", "phase3"]
        assert [row["epoch"] for row in log] == [0, 1, 2]
        assert all(np.isfinite(row["loss"]) for row in log)
        assert [row["skipped"] for row in log] == [0, 0, 0]
        assert all(np.isfinite(t.data).all() for t in params.values())
        tensors, extra, _ = load_checkpoint(str(out / "final"))
        assert sorted(tensors) == sorted(params)
        assert extra["kind"] == "uar" and extra["mode"] == "static2d"
        assert fields_from_dict(UarConfig, extra["model"]) == TINY
        with open(tmp_path / "uar.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["phase1", "phase2", "phase3"]
        assert float(rows[0]["loss"]) == pytest.approx(log[0]["loss"])
        assert list(rows[0])[-3:] == ["gp", "datafit", "loss_reg"]
        for row, entry in zip(rows, log):
            for key in ("gp", "datafit", "loss_reg"):
                if key in entry:
                    assert float(row[key]) == pytest.approx(entry[key])
                else:
                    assert row[key] == ""

    def test_sampler_streams_are_independent(self, tiny_dataset):
        trace = []
        cfg = UarTrainConfig(phase1_epochs=2, phase2_epochs=1, phase3_epochs=2,
                             seed=3)
        train_uar(tiny_dataset, "static2d", cfg, TINY, sampler_trace=trace)
        n = len(tiny_dataset)
        adversarial = [(g, p) for phase, g, p in trace if phase in (1, 3)]
        assert len(adversarial) == 4 * n
        assert all(0 <= g < n and 0 <= p < n for g, p in adversarial)
        # the two index streams come from separate draws; a paired
        # sampler would make every tuple diagonal
        assert any(g != p for g, p in adversarial)
        assert all(g == -1 for phase, g, p in trace if phase == 2)

    def test_empty_dataset_rejected(self, tiny_dataset):
        empty = Dataset(tiny_dataset.geometry, [], [])
        with pytest.raises(ConfigError):
            train_uar(empty, "static2d", UarTrainConfig())

    def test_phase1_reduces_gradient_penalty(self, tiny_dataset):
        cfg = UarTrainConfig(phase1_epochs=3, phase2_epochs=0,
                             phase3_epochs=1, lr_warmup=1e-3, seed=0)
        _, log = train_uar(tiny_dataset, "static2d", cfg, TINY)
        phase1 = [row for row in log if row["split"] == "phase1"]
        assert phase1[-1]["gp"] < phase1[0]["gp"]

    def test_phase3_improves_data_fidelity(self, tiny_dataset):
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=2, phase3_epochs=4,
                             lr_warmup=1e-3, lr_adversarial=1e-3, seed=0)
        _, log = train_uar(tiny_dataset, "static2d", cfg, TINY)
        phase3 = [row for row in log if row["split"] == "phase3"]
        assert phase3[-1]["datafit"] < phase3[0]["datafit"]

    def test_training_is_deterministic(self, tiny_dataset):
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=1, phase3_epochs=1,
                             seed=12)
        p1, log1 = train_uar(tiny_dataset, "static2d", cfg, TINY)
        p2, log2 = train_uar(tiny_dataset, "static2d", cfg, TINY)
        assert log1 == log2
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)

    @pytest.mark.parametrize("phases", [(0, 1, 0), (0, 0, 1)])
    def test_one_generator_pass_per_draw(self, tiny_dataset, monkeypatch,
                                         phases):
        calls = []
        real = uar.uar_generator

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(uar, "uar_generator", counting)
        p1, p2, p3 = phases
        cfg = UarTrainConfig(phase1_epochs=p1, phase2_epochs=p2,
                             phase3_epochs=p3, seed=5)
        train_uar(tiny_dataset, "static2d", cfg, TINY)
        assert len(calls) == len(tiny_dataset)

    def test_generator_update_fills_no_critic_grad(self, tiny_dataset):
        cfg = UarTrainConfig(phase1_epochs=0, phase2_epochs=1,
                             phase3_epochs=0, seed=2)
        params, _ = train_uar(tiny_dataset, "static2d", cfg, TINY)
        assert all(t.grad is None for t in critic_params(params).values())
        assert any(t.grad is not None
                   for t in generator_params(params).values())

    @pytest.mark.parametrize("mode", ["static2d", "dynamic3d"])
    def test_frozen_critic_matches_live_critic(self, tiny_dataset,
                                               monkeypatch, mode):
        """Generator updates scored by a critic that needs no gradient
        train bitwise the same as with the trainable critic Tensors."""
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=1,
                             phase3_epochs=2, seed=4)
        ds = Dataset(tiny_dataset.geometry, tiny_dataset.gt[:2],
                     tiny_dataset.sinograms[:2])
        p1, log1 = train_uar(ds, mode, cfg, TINY)

        def live_critic_loss(params, critic, *args, **kwargs):
            live = {k: Tensor(t.data, requires_grad=True)
                    for k, t in critic.items()}
            return gen_loss(params, live, *args, **kwargs)

        monkeypatch.setattr(uar, "gen_loss", live_critic_loss)
        p2, log2 = train_uar(ds, mode, cfg, TINY)
        assert log1 == log2
        assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)

    def test_dynamic_mode_smoke(self, tmp_path, tiny_dataset):
        ds = tiny_dataset
        two = Dataset(ds.geometry, ds.gt[:2], ds.sinograms[:2])
        cfg = UarTrainConfig(phase1_epochs=1, phase2_epochs=1, phase3_epochs=1,
                             seed=1, out_dir=str(tmp_path / "dyn"))
        params, log = train_uar(two, "dynamic3d", cfg, TINY)
        assert [row["split"] for row in log] == ["phase1", "phase2", "phase3"]
        assert all(np.isfinite(row["loss"]) for row in log)
        assert params["gen.p0.c0.w"].data.ndim == 5
        _, extra, _ = load_checkpoint(str(tmp_path / "dyn" / "final"))
        assert extra["mode"] == "dynamic3d"
        # trained generator reconstructs a held-out sequence
        held_out = ds.sinograms[2]
        aop = SequenceScanOperator(
            [operator_for_angles(a, held_out.offsets, ds.geometry.image_size)
             for a in held_out.angles])
        psi = aop.pad(held_out.frames)
        rec = uar_reconstruct(params, psi, aop)
        assert rec.shape == (3, 16, 16) and np.isfinite(rec).all()
