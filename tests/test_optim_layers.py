import json
import os

import numpy as np
import pytest

from tcrtomo.autodiff import Tensor
from tcrtomo.checkpoint import load_checkpoint, save_checkpoint
from tcrtomo.errors import DatasetFormatError, MissingArtifactError
from tcrtomo.layers import (add_conv, add_layer_norm, add_linear, kaiming_conv,
                            linear, trunc_normal)
from tcrtomo.optim import adamw_step, init_adamw, lr_cosine
from test_artifacts import ref_save_checkpoint


class TestInit:
    def test_trunc_normal_bounds_and_scale(self):
        rng = np.random.default_rng(0)
        x = trunc_normal(rng, (20000,))
        assert x.dtype == np.float32
        assert np.max(np.abs(x)) <= 2 * 0.02 + 1e-8
        # std of a +-2 sigma truncated normal is about 0.88 sigma
        assert 0.8 * 0.02 < np.std(x) < 0.95 * 0.02

    def test_trunc_normal_deterministic(self):
        a = trunc_normal(np.random.default_rng(7), (64, 64))
        b = trunc_normal(np.random.default_rng(7), (64, 64))
        assert np.array_equal(a, b)

    def test_kaiming_scale(self):
        rng = np.random.default_rng(1)
        w = kaiming_conv(rng, 64, 16, (3, 3))
        assert w.shape == (64, 16, 3, 3)
        expected = np.sqrt(2.0 / (16 * 9))
        assert abs(np.std(w) - expected) < 0.1 * expected

    def test_builders_register_names_and_shapes(self):
        rng = np.random.default_rng(2)
        params = {}
        add_linear(params, rng, "proj", 8, 16)
        add_conv(params, rng, "c2", 3, 5, (3, 3))
        add_conv(params, rng, "c3", 2, 4, (3, 1, 1))
        add_layer_norm(params, "ln", 16)
        assert params["proj.w"].shape == (8, 16)
        assert params["proj.b"].shape == (16,)
        assert params["c2.w"].shape == (5, 3, 3, 3)
        assert params["c3.w"].shape == (4, 2, 3, 1, 1)
        assert np.all(params["ln.g"].data == 1)
        assert np.all(params["ln.b"].data == 0)
        assert all(t.requires_grad for t in params.values())

    def test_duplicate_name_rejected(self):
        rng = np.random.default_rng(3)
        params = {}
        add_linear(params, rng, "p", 2, 2)
        with pytest.raises(ValueError):
            add_linear(params, rng, "p", 2, 2)

    def test_linear_apply_matches_manual(self):
        rng = np.random.default_rng(4)
        params = {}
        add_linear(params, rng, "lin", 5, 3)
        x = Tensor(rng.normal(size=(7, 5)).astype(np.float32))
        y = linear(x, params, "lin")
        ref = x.data @ params["lin.w"].data + params["lin.b"].data
        assert np.allclose(y.data, ref, atol=1e-6)


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = {"x": Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)}
        st = init_adamw(p, weight_decay=0.0)
        p["x"].grad = np.zeros(2, dtype=np.float32)
        rep = adamw_step(p, st, lr=1e-3)
        assert rep["applied"]
        assert np.array_equal(p["x"].data, np.array([1.0, -2.0], dtype=np.float32))

    def test_first_step_unit_gradient(self):
        p = {"x": Tensor(np.array([0.5], dtype=np.float32), requires_grad=True)}
        st = init_adamw(p, weight_decay=0.0, eps=1e-8)
        p["x"].grad = np.ones(1, dtype=np.float32)
        adamw_step(p, st, lr=0.01)
        # bias-corrected m_hat = 1, v_hat = 1 -> step of exactly -lr/(1+eps)
        assert abs(p["x"].data[0] - (0.5 - 0.01)) < 1e-6

    def test_decay_only_multiplicative_shrink(self):
        p = {"x": Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)}
        st = init_adamw(p, weight_decay=0.1)
        p["x"].grad = np.zeros(1, dtype=np.float32)
        adamw_step(p, st, lr=0.5)
        assert abs(p["x"].data[0] - 2.0 * (1 - 0.5 * 0.1)) < 1e-6

    def test_nonfinite_gradient_skips_everything(self):
        p = {
            "a": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True),
            "b": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True),
        }
        st = init_adamw(p)
        p["a"].grad = np.array([np.nan], dtype=np.float32)
        p["b"].grad = np.array([1.0], dtype=np.float32)
        rep = adamw_step(p, st, lr=0.1)
        assert not rep["applied"]
        assert rep["skipped"] == ["a"]
        assert st["step"] == 0
        assert p["b"].data[0] == 1.0
        assert np.all(st["m"]["b"] == 0)

    def test_missing_grad_leaves_param(self):
        p = {
            "a": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True),
            "b": Tensor(np.array([3.0], dtype=np.float32), requires_grad=True),
        }
        st = init_adamw(p, weight_decay=0.0)
        p["a"].grad = np.array([1.0], dtype=np.float32)
        adamw_step(p, st, lr=0.01)
        assert p["b"].data[0] == 3.0
        assert p["a"].data[0] != 1.0

    def test_descends_quadratic(self):
        p = {"x": Tensor(np.array([4.0], dtype=np.float32), requires_grad=True)}
        st = init_adamw(p, weight_decay=0.0)
        for _ in range(300):
            p["x"].grad = 2.0 * p["x"].data
            adamw_step(p, st, lr=0.05)
        assert abs(p["x"].data[0]) < 0.1


class TestLrCosine:
    def test_refinement_anchor(self):
        assert lr_cosine(10, 10, 100, 1e-6, 1e-4) == pytest.approx(1e-4)

    def test_last_epoch_near_min(self):
        lr = lr_cosine(99, 10, 100, 1e-6, 1e-4)
        bound = 2 * (1e-4 - 1e-6) * np.sin(np.pi / 180) ** 2 + 1e-6
        assert lr <= bound

    def test_prediction_hold(self):
        assert lr_cosine(20, 0, 100, 1e-6, 3e-5, hold_until=40) == pytest.approx(3e-5)
        assert lr_cosine(40, 0, 100, 1e-6, 3e-5, hold_until=40) == pytest.approx(3e-5)
        assert lr_cosine(41, 0, 100, 1e-6, 3e-5, hold_until=40) < 3e-5

    def test_warmup_ramp(self):
        vals = [lr_cosine(e, 10, 100, 1e-6, 1e-4) for e in range(10)]
        assert vals[0] == pytest.approx(1e-5)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_decay_after_hold(self):
        vals = [lr_cosine(e, 0, 100, 1e-6, 3e-5, hold_until=40) for e in range(41, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_range_violations(self):
        with pytest.raises(ValueError):
            lr_cosine(100, 10, 100, 1e-6, 1e-4)
        with pytest.raises(ValueError):
            lr_cosine(-1, 10, 100, 1e-6, 1e-4)
        with pytest.raises(ValueError):
            lr_cosine(0, 10, 100, 1e-3, 1e-4)


class TestCheckpoint:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        params = {}
        add_linear(params, rng, "lin", 4, 3)
        add_conv(params, rng, "conv", 2, 2, (3, 3))
        return params

    def test_roundtrip_bitwise(self, tmp_path):
        params = self._params()
        save_checkpoint(tmp_path / "ck", params, extra={"epoch": 7})
        loaded, extra, opt = load_checkpoint(tmp_path / "ck")
        assert extra["epoch"] == 7
        assert opt is None
        assert sorted(loaded) == sorted(params)
        for k in params:
            assert np.array_equal(loaded[k].data, params[k].data)
            assert loaded[k].requires_grad

    def test_optimizer_state_roundtrip(self, tmp_path):
        # checkpoints written before the format dropped AdamW state still
        # hand it back
        params = self._params(1)
        st = init_adamw(params)
        for t in params.values():
            t.grad = np.ones(t.shape, dtype=np.float32)
        adamw_step(params, st, lr=1e-3)
        ref_save_checkpoint(tmp_path / "ck", params, extra={"epoch": 1},
                            optimizer=st)
        loaded, extra, opt = load_checkpoint(tmp_path / "ck")
        assert opt["step"] == 1
        assert opt["betas"] == (0.9, 0.95)
        for k in st["m"]:
            assert np.allclose(opt["m"][k], st["m"][k], atol=1e-7)
            assert np.allclose(opt["v"][k], st["v"][k], atol=1e-7)

    def test_rewrite_byte_identical(self, tmp_path):
        params = self._params(2)
        save_checkpoint(tmp_path / "a", params)
        save_checkpoint(tmp_path / "b", params)
        for fname in ("meta.json", "weights.f32"):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b

    def test_truncated_blob_names_tensor(self, tmp_path):
        params = self._params(3)
        save_checkpoint(tmp_path / "ck", params)
        blob = tmp_path / "ck" / "weights.f32"
        data = blob.read_bytes()
        blob.write_bytes(data[:-8])
        with pytest.raises(DatasetFormatError, match="lin.w|conv.w|lin.b|conv.b"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            load_checkpoint(tmp_path / "nope")
        os.makedirs(tmp_path / "half")
        with open(tmp_path / "half" / "meta.json", "w") as fh:
            json.dump({"format": "tcr-checkpoint-v1", "tensors": {}}, fh)
        with pytest.raises(MissingArtifactError):
            load_checkpoint(tmp_path / "half")

    def test_bad_format_tag(self, tmp_path):
        params = self._params(4)
        save_checkpoint(tmp_path / "ck", params)
        meta_path = tmp_path / "ck" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = "something-else"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError):
            load_checkpoint(tmp_path / "ck")
