import csv
import json
import math

import numpy as np
import pytest

import tcrtomo.training as training
from tcrtomo.autodiff import linear_map
from tcrtomo.errors import ConfigError, DatasetFormatError
from tcrtomo.geometry import ScanGeometry
from tcrtomo.phantoms import generate_dataset
from tcrtomo.stt import (SttConfig, init_stt_params, refine, stt_forward,
                         stt_param_shapes)
from tcrtomo.training import (TrainConfig, gt_ratio, landweber_pairs,
                              max_rollout, prediction_train_config,
                              rollout_prob, teacher_forcing_ratio,
                              train_prediction, train_refinement)

TINY_MODEL = SttConfig(model_dim=16, heads=2, layers=1, image_size=16,
                       enc_channels=(2, 3, 4))


def _tiny_dataset(n_items=4, n_steps=4, seed=5):
    geom = ScanGeometry(image_size=16, n_steps=n_steps, n_angles_init=8,
                        n_angles_rest=3, n_offsets=23)
    return generate_dataset(geom, n_items, seed=seed)


class TestSchedules:
    def test_gt_ratio_closed_form_all_epochs(self):
        for e in range(100):
            if e < 10:
                want = 1.0
            elif e < 40:
                want = 1.0 - (e - 10) / 37.5
            else:
                want = 0.2
            assert gt_ratio(e) == pytest.approx(want, abs=1e-12)

    def test_gt_ratio_anchors(self):
        assert gt_ratio(5) == 1.0
        assert gt_ratio(25) == pytest.approx(0.6)
        assert gt_ratio(40) == pytest.approx(0.2)

    def test_teacher_forcing_closed_form(self):
        for e in range(100):
            want = max(0.0, 0.9 * (1 - e / 85))
            assert teacher_forcing_ratio(e) == pytest.approx(want, abs=1e-12)
        assert teacher_forcing_ratio(0) == pytest.approx(0.9)
        assert teacher_forcing_ratio(85) == 0.0
        assert teacher_forcing_ratio(17) == pytest.approx(0.72)

    def test_rollout_schedules(self):
        for e in range(100):
            if e < 30:
                want = 2
            elif e < 70:
                want = 4
            elif e < 90:
                want = 6
            else:
                want = 8
            assert max_rollout(e) == want
            assert rollout_prob(e) == pytest.approx(min(1.0, e / 30))
        assert (max_rollout(0), rollout_prob(0)) == (2, 0.0)
        assert (max_rollout(75), rollout_prob(75)) == (6, 1.0)
        assert (max_rollout(15), rollout_prob(15)) == (2, 0.5)

    def test_negative_epoch_rejected(self):
        for fn in (gt_ratio, teacher_forcing_ratio, max_rollout, rollout_prob):
            with pytest.raises(ValueError):
                fn(-1)


class TestLandweberPairs:
    def test_shapes_and_quality(self):
        ds = _tiny_dataset()
        lw = landweber_pairs(ds)
        assert lw.shape == (4, 2, 16, 16)
        assert lw.dtype == np.float32
        # initial reconstructions correlate with the ground truth
        for i in range(4):
            for t in range(2):
                g = ds.gt[i][t].astype(np.float64)
                r = lw[i, t].astype(np.float64)
                num = float(np.sum(g * r))
                den = float(np.linalg.norm(g) * np.linalg.norm(r))
                assert num / max(den, 1e-12) > 0.5

    def test_missing_frames_is_dataset_error(self):
        ds = _tiny_dataset()
        ds.sinograms[2].frames = ds.sinograms[2].frames[:1]
        with pytest.raises(DatasetFormatError, match="item 2"):
            landweber_pairs(ds)


class TestRefinementLoop:
    def test_one_epoch_plumbing(self, tmp_path):
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0,
                          out_dir=str(tmp_path / "ck"),
                          log_path=str(tmp_path / "log.csv"))
        params, log = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        assert len(log) == 1
        assert log[0]["epoch"] == 0
        assert log[0]["gt_ratio"] == 1.0
        assert np.isfinite(log[0]["loss"])
        assert (tmp_path / "ck" / "final" / "meta.json").exists()
        with open(tmp_path / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert list(rows[0]) == list(training.LOG_COLUMNS)

    def test_checkpoints_hold_only_the_model(self, tmp_path):
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=0, checkpoint_every=1,
                          out_dir=str(tmp_path / "ck"))
        train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        shapes = stt_param_shapes(TINY_MODEL)
        size = sum(int(np.prod(shape)) for shape in shapes.values())
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "epoch_001", "final"]
        for name in ("epoch_001", "final"):
            path = tmp_path / "ck" / name
            meta = json.loads((path / "meta.json").read_text())
            assert sorted(meta["tensors"]) == sorted(shapes)
            assert (path / "weights.f32").stat().st_size == 4 * size
            assert "optimizer" not in meta["extra"]

    def test_loss_decreases_over_epochs(self):
        ds = _tiny_dataset(n_items=6)
        cfg = TrainConfig(epochs=12, batch_size=6, seed=1, warmup=2,
                          max_lr=3e-4)
        _, log = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        losses = [r["loss"] for r in log if r["split"] == "train"]
        assert losses[-1] < losses[0]

    def test_reproducible_logs(self):
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
        _, log1 = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        _, log2 = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        assert log1 == log2

    def test_val_rows_present(self):
        ds = _tiny_dataset()
        val = _tiny_dataset(n_items=2, seed=99)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        _, log = train_refinement(ds, cfg, model_cfg=TINY_MODEL,
                                  val_dataset=val)
        splits = [r["split"] for r in log]
        assert splits == ["train", "val"]

    def test_refused_update_is_counted(self, monkeypatch):
        # one batch, whose gradient is NaN in every entry: adamw_step
        # refuses the update, the log counts it, the weights stay at init
        ds = _tiny_dataset()
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        _, clean = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        real = training._run

        def poisoned(*args, **kwargs):
            out, kv = real(*args, **kwargs)
            return linear_map(out, lambda v: v,
                              lambda g: np.full_like(g, np.nan)), kv

        monkeypatch.setattr(training, "_run", poisoned)
        params, log = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
        assert clean[0]["skipped"] == 0
        assert log[0]["skipped"] == 1
        assert log[0]["loss"] == clean[0]["loss"]
        init = init_stt_params(TINY_MODEL, seed=cfg.seed)
        assert all(np.array_equal(params[k].data, init[k].data) for k in init)

    def test_size_mismatch_config_error(self):
        ds = _tiny_dataset()
        bad = SttConfig(model_dim=16, heads=2, layers=1, image_size=32,
                        enc_channels=(2, 3, 4))
        with pytest.raises(ConfigError):
            train_refinement(ds, TrainConfig(epochs=1), model_cfg=bad)


class TestPredictionLoop:
    def _refined_setup(self, n_items=4, n_steps=4):
        ds = _tiny_dataset(n_items=n_items, n_steps=n_steps)
        re_params = init_stt_params(TINY_MODEL, seed=7)
        return ds, re_params

    def test_one_epoch_plumbing(self, tmp_path):
        ds, re_params = self._refined_setup()
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0,
                                      out_dir=str(tmp_path / "ck"))
        params, log = train_prediction(ds, re_params, TINY_MODEL, cfg)
        assert len(log) == 1
        assert log[0]["rollout"] == 2
        assert log[0]["tf_ratio"] == pytest.approx(0.9)
        assert np.isfinite(log[0]["loss"])
        assert (tmp_path / "ck" / "final" / "meta.json").exists()

    def test_too_few_frames_config_error(self):
        ds, re_params = self._refined_setup(n_steps=2)
        cfg = prediction_train_config(epochs=1)
        with pytest.raises(ConfigError, match="3 frames"):
            train_prediction(ds, re_params, TINY_MODEL, cfg)

    def test_teacher_forcing_one_consumes_ground_truth(self, monkeypatch):
        ds, re_params = self._refined_setup(n_steps=5)
        monkeypatch.setattr(training, "teacher_forcing_ratio", lambda e: 1.0)
        monkeypatch.setattr(training, "rollout_prob", lambda e: 1.0)
        monkeypatch.setattr(training, "max_rollout", lambda e: 2)
        seen = []
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0)
        train_prediction(ds, re_params, TINY_MODEL, cfg, on_step=seen.append)
        assert seen, "rollout steps were executed"
        assert {info["target"] for info in seen} == {2, 3}
        for info in seen:
            assert all(src == "gt" for src in info["sources"])

    def test_teacher_forcing_zero_consumes_predictions(self, monkeypatch):
        ds, re_params = self._refined_setup(n_steps=5)
        monkeypatch.setattr(training, "teacher_forcing_ratio", lambda e: 0.0)
        monkeypatch.setattr(training, "rollout_prob", lambda e: 1.0)
        monkeypatch.setattr(training, "max_rollout", lambda e: 2)
        seen = []
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0)
        train_prediction(ds, re_params, TINY_MODEL, cfg, on_step=seen.append)
        for info in seen:
            assert all(src == "pred" for src in info["sources"])

    def test_no_future_leakage(self):
        # at epoch 0 the rollout never goes past frame 2, so poisoning all
        # later ground-truth frames must not affect the loss
        ds, re_params = self._refined_setup(n_steps=6)
        for g in ds.gt:
            g[3:] = np.nan
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0)
        _, log = train_prediction(ds, re_params, TINY_MODEL, cfg)
        assert np.isfinite(log[0]["loss"])

    def test_rollout_capped_by_sequence_length(self, monkeypatch):
        ds, re_params = self._refined_setup(n_steps=3)
        monkeypatch.setattr(training, "rollout_prob", lambda e: 1.0)
        monkeypatch.setattr(training, "max_rollout", lambda e: 8)
        seen = []
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0)
        train_prediction(ds, re_params, TINY_MODEL, cfg, on_step=seen.append)
        assert {info["target"] for info in seen} == {2}

    def test_reproducible_logs(self):
        ds, re_params = self._refined_setup()
        cfg = prediction_train_config(epochs=2, batch_size=4, seed=5)
        _, log1 = train_prediction(ds, re_params, TINY_MODEL, cfg)
        _, log2 = train_prediction(ds, re_params, TINY_MODEL, cfg)
        assert log1 == log2

    def test_val_loss_is_the_rollout_error(self):
        """Validation rolls the model out from the refined pair and sums
        the squared error of every predicted frame, frame by frame."""
        ds, re_params = self._refined_setup(n_steps=5)
        val = _tiny_dataset(n_items=2, n_steps=5, seed=99)
        cfg = prediction_train_config(epochs=1, batch_size=4, seed=0)
        params, log = train_prediction(ds, re_params, TINY_MODEL, cfg,
                                       val_dataset=val)
        lw = landweber_pairs(val)
        total = 0.0
        for i, gt in enumerate(val.gt):
            frames = list(refine(re_params, TINY_MODEL, lw[i]))
            for t in range(2, 5):
                pred = stt_forward(params, TINY_MODEL, np.stack(frames))[t]
                total += float(np.sum((pred - gt[t]) ** 2))
                frames.append(pred)
        assert log[-1]["split"] == "val"
        assert log[-1]["loss"] == total / 6

    def test_loss_decreases(self):
        ds, re_params = self._refined_setup(n_items=6, n_steps=4)
        cfg = prediction_train_config(epochs=10, batch_size=6, seed=2,
                                      max_lr=3e-4)
        _, log = train_prediction(ds, re_params, TINY_MODEL, cfg)
        losses = [r["loss"] for r in log if r["split"] == "train"]
        assert min(losses[5:]) < losses[0]


class TestEmptyDatasets:
    """An empty training or validation set fails by name, before any
    Landweber pair is computed."""

    @pytest.mark.parametrize("empty", ["dataset", "val_dataset"])
    @pytest.mark.parametrize("trainer", ["refine", "predict"])
    def test_empty_set_is_config_error(self, monkeypatch, trainer, empty):
        def no_pairs(ds):
            raise AssertionError("landweber_pairs ran")

        monkeypatch.setattr(training, "landweber_pairs", no_pairs)
        full, none = _tiny_dataset(), _tiny_dataset(n_items=0)
        ds, val = (none, full) if empty == "dataset" else (full, none)
        with pytest.raises(ConfigError, match="at least one item") as err:
            if trainer == "refine":
                train_refinement(ds, TrainConfig(epochs=1), TINY_MODEL,
                                 val_dataset=val)
            else:
                train_prediction(ds, init_stt_params(TINY_MODEL, seed=7),
                                 TINY_MODEL, prediction_train_config(epochs=1),
                                 val_dataset=val)
        assert err.value.path == empty


class TestStructure:
    def test_trainers_decode_only_the_slots_their_loss_reads(self,
                                                             monkeypatch):
        """Each taped batch decodes what its loss reads: the refinement
        pair of every item, and slot t alone of every active prediction
        sample, whatever the history length."""
        import tcrtomo.stt as stt
        decoded = []
        real_decode = stt._decode

        def decode(params, cfg, tok, seq):
            if tok.requires_grad:
                decoded.append(tuple(seq.shape[:2]))
            return real_decode(params, cfg, tok, seq)

        monkeypatch.setattr(stt, "_decode", decode)
        ds = _tiny_dataset(n_items=5, n_steps=5)
        train_refinement(ds, TrainConfig(epochs=1, batch_size=3, seed=0),
                         model_cfg=TINY_MODEL)
        assert decoded == [(3, 2), (2, 2)]

        decoded.clear()
        monkeypatch.setattr(training, "rollout_prob", lambda e: 0.5)
        monkeypatch.setattr(training, "max_rollout", lambda e: 3)
        steps = []
        train_prediction(ds, init_stt_params(TINY_MODEL, seed=7), TINY_MODEL,
                         prediction_train_config(epochs=1, batch_size=3),
                         on_step=steps.append)
        assert {s["target"] for s in steps} == {2, 3, 4}
        assert decoded == [(len(s["samples"]), 1) for s in steps]


class TestConfigValidation:
    def test_bad_train_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    def test_prediction_preset(self):
        cfg = prediction_train_config()
        assert cfg.max_lr == pytest.approx(3e-5)
        assert cfg.hold_until == 40
        assert cfg.warmup == 0
        cfg2 = prediction_train_config(epochs=7)
        assert cfg2.epochs == 7


def test_refinement_loss_zero_at_ground_truth():
    # Eq-style loss is half the summed squared error over the two frames;
    # identical output and target must give exactly zero
    rng = np.random.default_rng(0)
    out = rng.normal(size=(2, 16, 16))
    loss = 0.5 * float(np.sum((out - out) ** 2))
    assert loss == 0.0


def test_math_sanity_lr_against_training_log():
    ds_geom = ScanGeometry(image_size=16, n_steps=3, n_angles_init=6,
                           n_angles_rest=3, n_offsets=19)
    ds = generate_dataset(ds_geom, 2, seed=11)
    cfg = TrainConfig(epochs=3, batch_size=2, seed=0, warmup=1, max_lr=1e-4)
    _, log = train_refinement(ds, cfg, model_cfg=TINY_MODEL)
    assert log[0]["lr"] == pytest.approx(1e-4)
    assert log[1]["lr"] == pytest.approx(1e-4)
    expected = 1e-6 + 0.5 * (1e-4 - 1e-6) * (1 + math.cos(math.pi * 0.5))
    assert log[2]["lr"] == pytest.approx(expected)
