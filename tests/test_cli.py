"""Command-line surface: config schema, exit codes, artifact round trips."""

import copy
import csv
import itertools
import json
import os
import shutil
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from tcrtomo import cli, training
from tcrtomo.checkpoint import load_checkpoint, save_checkpoint
from tcrtomo.cli import main, write_pgm
from tcrtomo.config import (default_config, geometry_from, load_config,
                            merge_config, recon_config_from, stt_config_from,
                            train_config_from, uar_configs_from,
                            validate_config)
from tcrtomo.datasets import (Sinogram, load_external_sinogram,
                              read_dataset, write_dataset, write_sinogram_set)
from tcrtomo.errors import (ConfigError, DatasetFormatError,
                            MissingArtifactError)
from tcrtomo.geometry import ScanGeometry, angle_schedule, operator_for_angles
from tcrtomo.metrics import ssim
from tcrtomo.optim import adamw_step, init_adamw
from tcrtomo.phantoms import generate_dataset
from tcrtomo.pipeline import ReconResult, evaluate, load_result, save_result
from tcrtomo.solvers import l1_tcr_fista
from tcrtomo.stt import SttConfig, init_stt_params
from fresh_process import run_tcrtomo
from test_artifacts import gt_restated, ref_save_checkpoint

TINY_CONFIG = {
    "geometry": {"image_size": 16, "n_steps": 4, "n_angles_init": 6,
                 "n_angles_rest": 3, "n_offsets": 23},
    "phantom": {"n_train": 3, "n_val": 2, "n_test": 2},
    "train_refine": {"epochs": 2, "batch_size": 2,
                     "model": {"model_dim": 16, "heads": 2, "layers": 1}},
    "train_predict": {"epochs": 2, "batch_size": 2,
                      "model": {"model_dim": 16, "heads": 2, "layers": 1}},
    "recon": {"max_iter_l1": 40},
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cliwork")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data = root / "data"
    assert run_cli("gen-data", "--config", cfg_path, "--seed", 5,
                   "--out", data) == 0
    refine = root / "refine"
    assert run_cli("train-refine", "--config", cfg_path, "--seed", 5,
                   "--data", data / "train", "--out", refine) == 0
    predict = root / "predict"
    assert run_cli("train-predict", "--config", cfg_path, "--seed", 5,
                   "--data", data / "train", "--refine", refine / "final",
                   "--out", predict) == 0
    results = root / "results"
    assert run_cli("reconstruct", "--config", cfg_path, "--seed", 5,
                   "--input", data / "test", "--refine", refine / "final",
                   "--predict", predict / "final", "--out", results) == 0
    return SimpleNamespace(root=root, cfg=cfg_path, data=data,
                           refine=refine / "final",
                           predict=predict / "final", results=results)


def copy_tree(src, dst):
    """Copy of an artifact directory, to break without touching src."""
    shutil.copytree(src, dst)
    return dst


def tree_bytes(path):
    """{relative path: file bytes} for a directory tree."""
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


class TestConfigSchema:
    def test_defaults_validate(self):
        cfg = default_config()
        validate_config(cfg)
        assert cfg["geometry"]["image_size"] == 64
        assert cfg["recon"]["solver"] == "L1"

    def test_presets(self):
        desk = load_config(preset="desk")
        assert desk["geometry"]["image_size"] == 32
        assert desk["geometry"]["n_steps"] == 8
        assert desk["train_refine"]["epochs"] == 30
        paper = load_config(preset="paper")
        assert paper["train_predict"]["model"]["model_dim"] == 512
        assert paper["train_predict"]["model"]["heads"] == 8
        assert paper["train_predict"]["model"]["layers"] == 6
        assert paper["phantom"]["n_train"] == 5000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config(preset="pocket")

    def test_unknown_key_path(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"train_refine": {"model": {"depth": 3}}})
        assert err.value.path == "/train_refine/model/depth"

    def test_type_and_range_checks(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"train_refine": {"epochs": "many"}})
        assert err.value.path == "/train_refine/epochs"
        with pytest.raises(ConfigError):
            validate_config({"seed": True})  # bool is not an int here
        with pytest.raises(ConfigError):
            validate_config({"geometry": {"image_size": 1}})
        with pytest.raises(ConfigError):
            validate_config({"train_uar": {"critic_channels": [4, 4, 4]}})
        with pytest.raises(ConfigError):
            validate_config({"eval": {"data_range": -1.0}})
        with pytest.raises(ConfigError):
            validate_config({"recon": {"solver": "L7"}})

    def test_null_handling(self):
        validate_config({"geometry": {"rotation_delta": None}})
        with pytest.raises(ConfigError):
            validate_config({"train_refine": {"epochs": None}})

    def test_merge_precedence(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9,
                                    "geometry": {"image_size": 48}}))
        cfg = load_config(path=str(path), preset="desk",
                          overrides={"seed": 11})
        assert cfg["seed"] == 11  # flag beats file
        assert cfg["geometry"]["image_size"] == 48  # file beats preset
        assert cfg["geometry"]["n_steps"] == 8  # preset beats defaults
        assert cfg["phantom"]["noise_level"] == 0.0  # defaults survive

    def test_missing_file(self):
        with pytest.raises(MissingArtifactError):
            load_config(path="/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    def test_merge_is_pure(self):
        base = {"a": {"b": 1, "c": 2}}
        merged = merge_config(base, {"a": {"b": 7}})
        assert merged == {"a": {"b": 7, "c": 2}}
        assert base["a"]["b"] == 1


class TestConverters:
    def test_geometry(self):
        cfg = load_config(preset="desk")
        geom = geometry_from(cfg)
        assert geom.image_size == 32 and geom.n_steps == 8
        assert geom.n_offsets == 47

    def test_stt(self):
        cfg = load_config(preset="paper")
        mcfg = stt_config_from(cfg["train_predict"], 64)
        assert (mcfg.model_dim, mcfg.heads, mcfg.layers) == (512, 8, 6)
        assert mcfg.image_size == 64

    def test_train(self):
        cfg = default_config()
        tcfg = train_config_from(cfg["train_predict"], seed=3,
                                 out_dir="/tmp/x")
        assert tcfg.hold_until == 40 and tcfg.max_lr == 3e-5
        assert tcfg.seed == 3 and tcfg.out_dir == "/tmp/x"

    def test_recon_solver_case(self):
        cfg = default_config()
        cfg["recon"]["solver"] = "l1tv"
        rcfg = recon_config_from(cfg["recon"], 32)
        assert rcfg.solver == "L1TV" and rcfg.image_size == 32

    def test_uar(self):
        cfg = default_config()
        mode, model, train = uar_configs_from(cfg["train_uar"], seed=2)
        assert mode == "static2d"
        assert model.unroll == 20
        assert model.critic_channels == (16, 16, 32, 32, 32, 32)
        assert train.phase3_epochs == 10 and train.seed == 2


class TestExitCodes:
    def test_schema_violation_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": {"imag_size": 16}}))
        rc = run_cli("gen-data", "--config", bad, "--out", tmp_path / "d")
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == "/geometry/imag_size"

    def test_missing_artifact_is_3(self, tmp_path, capsys):
        rc = run_cli("train-refine", "--data", tmp_path / "nope",
                     "--out", tmp_path / "o")
        assert rc == 3
        assert stderr_payload(capsys)["error"] == "missing-artifact"

    @pytest.mark.parametrize("command, target, edit, named", [
        ("train-refine", "data", lambda m: m.pop("geometry"), "meta.json"),
        ("train-refine", "data", "{not json", "meta.json"),
        ("train-refine", "data",
         lambda m: m["items"][0]["sino"][2]["angles"].pop(), "meta.json"),
        ("train-predict", "refine", lambda m: m.pop("tensors"), "meta.json"),
        ("train-predict", "refine", "nan", "weights.f32"),
    ], ids=["no-geometry", "not-json", "angle-count", "no-tensors",
            "nan-weight"])
    def test_bad_artifact_is_3(self, work, tmp_path, capsys, command,
                               target, edit, named):
        """A broken dataset or checkpoint exits 3 and names the file."""
        src = work.data / "train" if target == "data" else work.refine
        broken = copy_tree(src, tmp_path / target)
        if edit == "nan":
            meta = json.loads((broken / "meta.json").read_text())
            with open(broken / named, "r+b") as fh:
                fh.seek(meta["tensors"]["head.w"]["offset"])
                fh.write(np.float32(np.nan).tobytes())
        elif isinstance(edit, str):
            (broken / named).write_text(edit)
        else:
            meta = json.loads((broken / named).read_text())
            edit(meta)
            (broken / named).write_text(json.dumps(meta))
        data = broken if target == "data" else work.data / "train"
        argv = [command, "--config", work.cfg, "--data", data,
                "--out", tmp_path / "o"]
        if command == "train-predict":
            argv += ["--refine", broken]
        assert run_cli(*argv) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert str(broken / named) in payload["message"]

    @pytest.mark.parametrize("command", ["reconstruct", "train-predict"])
    def test_ground_truth_off_the_geometry_is_3(self, work, tmp_path, capsys,
                                                command):
        """A dataset whose item 0 holds 3 ground-truth frames where its
        geometry has 4, stated shape and payload agreeing, exits 3 naming
        the payload before any frame is solved or any model trained."""
        split = "test" if command == "reconstruct" else "train"
        data = copy_tree(work.data / split, tmp_path / "data")
        (named,) = gt_restated(0, (3, 16, 16))(data)
        if command == "reconstruct":
            argv = ["reconstruct", "--input", data, "--predict", work.predict]
        else:
            argv = ["train-predict", "--data", data]
        argv += ["--refine", work.refine, "--config", work.cfg,
                 "--out", tmp_path / "o"]
        assert run_cli(*argv) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert named in payload["message"]

    @pytest.mark.parametrize("kind", ["dataset", "sinogram-set"])
    def test_image_size_below_recon_bound_is_3(self, work, tmp_path, capsys,
                                               kind):
        """An input whose image size loads (>= 2) but is below
        reconstruction's bound of 8 exits 3 naming its meta.json entry,
        not a recon key the user never wrote."""
        src = tmp_path / "in"
        if kind == "dataset":
            geom = ScanGeometry(**{**TINY_CONFIG["geometry"], "image_size": 4})
            write_dataset(generate_dataset(geom, 1, seed=0), src)
            key = "/geometry/image_size"
        else:
            write_sinogram_set(read_dataset(work.data / "test").sinograms, 4,
                               src)
            key = "/image_size"
        assert run_cli("reconstruct", "--config", work.cfg, "--input", src,
                       "--refine", work.refine, "--predict", work.predict,
                       "--out", tmp_path / "r") == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert str(src / "meta.json") in payload["message"]
        assert f"{key}: must be >= 8, got 4" in payload["message"]

    def test_removed_landweber_iters_key_is_2(self, work, tmp_path, capsys):
        """The frames-0/1 Landweber budget is a module constant, no longer
        a recon key: a config file that sets it exits 2 at its pointer."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"recon": {"landweber_iters": 19}}))
        assert run_cli("reconstruct", "--config", bad, "--input",
                       work.data / "test", "--refine", work.refine,
                       "--predict", work.predict, "--out", tmp_path / "r") == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == "/recon/landweber_iters"

    @pytest.mark.parametrize("kind", ["dataset", "sinogram-set"])
    def test_input_without_items_is_3(self, work, tmp_path, capsys, kind):
        """An input whose meta.json lists no items exits 3 naming it,
        before any checkpoint is read or the output directory made."""
        src = tmp_path / "in"
        if kind == "dataset":
            copy_tree(work.data / "test", src)
        else:
            write_sinogram_set(read_dataset(work.data / "test").sinograms,
                               16, src)
        meta = json.loads((src / "meta.json").read_text())
        meta["items"], meta["n_items"] = [], 0
        (src / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "r"
        assert run_cli("reconstruct", "--config", work.cfg, "--input", src,
                       "--refine", tmp_path / "absent", "--predict",
                       tmp_path / "absent", "--out", out) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert str(src / "meta.json") in payload["message"]
        assert "no items" in payload["message"]
        assert not out.exists()

    def test_sinogram_set_item_below_two_steps_is_3(self, work, tmp_path,
                                                    capsys):
        """A sinogram-set item with one time step exits 3 naming its
        meta.json and the item, before any item is reconstructed."""
        sinos = read_dataset(work.data / "test").sinograms
        short = Sinogram(sinos[1].frames[:1], sinos[1].angles[:1],
                         sinos[1].offsets)
        scans = tmp_path / "scans"
        write_sinogram_set([sinos[0], short], 16, scans)
        out = tmp_path / "r"
        assert run_cli("reconstruct", "--config", work.cfg, "--input", scans,
                       "--refine", work.refine, "--predict", work.predict,
                       "--out", out) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert str(scans / "meta.json") in payload["message"]
        assert "item 1" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["nan-angle", "nan-offset", "inf-angle",
                                      "no-angles"])
    def test_bad_scan_geometry_is_3(self, work, tmp_path, capsys, case):
        """A sinogram set whose step 2 has a non-finite or empty angle list,
        or whose offsets are not finite, exits 3 naming its meta.json
        before any frame is solved."""
        scans = tmp_path / "scans"
        write_sinogram_set(read_dataset(work.data / "test").sinograms, 16,
                           scans)
        meta = json.loads((scans / "meta.json").read_text())
        entry = meta["items"][0]["sino"][2]
        if case == "nan-offset":
            meta["offsets"][0] = float("nan")
        elif case == "no-angles":
            entry["angles"], entry["shape"][0] = [], 0
            (scans / entry["file"]).write_bytes(b"")
        else:
            entry["angles"][0] = float(case[:3])
        (scans / "meta.json").write_text(json.dumps(meta))
        assert run_cli("reconstruct", "--config", work.cfg, "--input", scans,
                       "--refine", work.refine, "--predict", work.predict,
                       "--out", tmp_path / "r") == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert str(scans / "meta.json") in payload["message"]
        assert ("offsets" if case == "nan-offset" else "step 2") \
            in payload["message"]

    @pytest.mark.parametrize("case", ["meta-json", "payload", "config"])
    def test_unreadable_file_is_3(self, work, tmp_path, capsys, case):
        """A directory where a file belongs exits 3 and names it."""
        data = copy_tree(work.data / "train", tmp_path / "data")
        cfg = work.cfg
        if case == "meta-json":
            victim = data / "meta.json"
            argv = ["train-refine", "--data", data]
        elif case == "payload":
            victim = data / "gt_0.f32"
            argv = ["reconstruct", "--input", data, "--refine", work.refine,
                    "--predict", work.predict]
        else:
            victim = cfg = tmp_path / "cfg"
            argv = ["train-refine", "--data", data]
        if case != "config":
            victim.unlink()
        victim.mkdir()
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == ("missing-artifact" if case == "config"
                                    else "format-mismatch")
        assert str(victim) in payload["message"]

    def test_wrong_checkpoint_kind_is_3(self, work, tmp_path, capsys):
        rc = run_cli("reconstruct", "--input", work.data / "test",
                     "--refine", work.predict, "--predict", work.predict,
                     "--out", tmp_path / "r")
        assert rc == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert "'predict'" in payload["message"]

    def test_bad_checkpoint_model_is_3(self, work, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in os.listdir(work.refine):
            (ckpt / name).write_bytes((work.refine / name).read_bytes())
        meta = json.loads((ckpt / "meta.json").read_text())
        meta["extra"]["model"]["model_dim"] = 15  # not divisible by heads
        (ckpt / "meta.json").write_text(json.dumps(meta))
        rc = run_cli("reconstruct", "--input", work.data / "test",
                     "--refine", ckpt, "--predict", work.predict,
                     "--out", tmp_path / "r")
        assert rc == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert "/model_dim" in payload["message"]

    def test_bad_solver_flag_is_2(self, work, tmp_path, capsys):
        rc = run_cli("reconstruct", "--input", work.data / "test",
                     "--refine", work.refine, "--predict", work.predict,
                     "--out", tmp_path / "r", "--solver", "ART")
        assert rc == 2
        assert stderr_payload(capsys)["path"] == "/recon/solver"

    @pytest.mark.parametrize("flag, value, path", [
        ("--alpha-rest", "nan", "/recon/alpha_rest"),
        ("--beta-init", "inf", "/recon/beta_init"),
        ("--init-mode", "fbp", "/recon/init_mode"),
    ])
    def test_bad_recon_flag_is_2(self, work, tmp_path, capsys, flag, value,
                                 path):
        rc = run_cli("reconstruct", "--input", work.data / "test",
                     "--refine", work.refine, "--predict", work.predict,
                     "--out", tmp_path / "r", flag, value)
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == path
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, doc, path", [
        ("gen-data", {"geometry": {"rotation_delta": float("nan")}},
         "/geometry/rotation_delta"),
        ("train-uar", {"train_uar": {"lr_warmup": 0}},
         "/train_uar/lr_warmup"),
        ("train-refine", {"train_refine": {"model": {"model_dim": 65}}},
         "/train_refine/model/model_dim"),
        ("train-predict", {"train_predict": {"model": {"heads": 3}}},
         "/train_predict/model/model_dim"),
        ("train-refine", {"train_refine": {"max_lr": 1e-7}},
         "/train_refine/min_lr"),
    ])
    def test_config_error_path_is_2(self, work, tmp_path, capsys, command,
                                    doc, path):
        """NaN in a file, bounds the dataclass enforces, relational checks.

        The trainers get a dataset with a truncated payload: a config
        error must surface before any payload is read."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", cfg, "--out", tmp_path / "o"]
        if command != "gen-data":
            data = copy_tree(work.data / "train", tmp_path / "data")
            blob = data / "gt_0.f32"
            blob.write_bytes(blob.read_bytes()[:-4])
            argv += ["--data", data]
        if command == "train-predict":
            argv += ["--refine", work.refine]
        assert run_cli(*argv) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == path

    def test_bad_split_is_2(self, tmp_path, capsys):
        rc = run_cli("gen-data", "--out", tmp_path / "d",
                     "--splits", "train,holdout")
        assert rc == 2
        assert stderr_payload(capsys)["path"] == "/splits"

    def test_empty_split_list_is_2(self, tmp_path, capsys):
        rc = run_cli("gen-data", "--out", tmp_path / "d", "--splits", ",")
        assert rc == 2
        assert stderr_payload(capsys)["path"] == "/splits"
        assert not (tmp_path / "d").exists()

    def test_zero_data_range_is_2(self, work, tmp_path, capsys):
        """Rejected with the config, before any result is loaded."""
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"eval": {"data_range": 0}}))
        out = tmp_path / "m.csv"
        rc = run_cli("evaluate", "--config", cfg, "--results", work.results,
                     "--data", work.data / "test", "--out", out)
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == "/eval/data_range"
        assert not out.exists()

    @pytest.mark.parametrize("command, path", [
        ("train-refine", "model.image_size"),
        ("train-predict", "refine.image_size"),
    ])
    def test_image_size_mismatch_is_2(self, work, tmp_path, capsys,
                                      monkeypatch, command, path):
        """A 24 px val set or refinement checkpoint next to 16 px training
        data is rejected before any Landweber pair is computed."""
        def no_pairs(*args, **kwargs):
            raise AssertionError("Landweber pairs computed")

        monkeypatch.setattr(training, "landweber_pairs", no_pairs)
        argv = [command, "--config", work.cfg, "--data", work.data / "train",
                "--out", tmp_path / "o"]
        if command == "train-refine":
            big = tmp_path / "big.json"
            big.write_text(json.dumps(merge_config(
                TINY_CONFIG, {"geometry": {"image_size": 24}})))
            assert run_cli("gen-data", "--config", big, "--splits", "val",
                           "--out", tmp_path / "d") == 0
            argv += ["--val", tmp_path / "d" / "val"]
        else:
            model = SttConfig(model_dim=16, heads=2, layers=1, image_size=24)
            save_checkpoint(tmp_path / "refine", init_stt_params(model),
                            extra={"kind": "refine", "model": model.to_dict()})
            argv += ["--refine", tmp_path / "refine"]
        assert run_cli(*argv) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == path

    @pytest.mark.parametrize("command", ["reconstruct", "train-predict"])
    @pytest.mark.parametrize("name, shape", [
        ("blk0.qkv.b", None),
        ("blk0.mlp1.w", (16, 32)),
    ], ids=["missing", "wrong-shape"])
    def test_incomplete_checkpoint_is_2(self, work, tmp_path, capsys,
                                        monkeypatch, command, name, shape):
        """A refinement checkpoint that lacks a tensor or holds one of the
        wrong shape exits 2 naming it, before any Landweber pair."""
        def no_pairs(*args, **kwargs):
            raise AssertionError("Landweber pairs computed")

        monkeypatch.setattr(training, "landweber_pairs", no_pairs)
        params, extra, _ = load_checkpoint(work.refine)
        if shape is None:
            del params[name]
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
        save_checkpoint(tmp_path / "refine", params, extra=extra)
        argv = [command, "--config", work.cfg, "--refine", tmp_path / "refine",
                "--out", tmp_path / "o"]
        if command == "reconstruct":
            argv += ["--input", work.data / "test", "--predict", work.predict,
                     "--items", 1]
        else:
            argv += ["--data", work.data / "train"]
        assert run_cli(*argv) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "schema-violation"
        assert payload["path"] == f"refine.params/{name}"

    def test_numerical_failure_is_4(self, work, tmp_path, capsys,
                                    monkeypatch):
        import tcrtomo.pipeline as pipeline

        def boom(*a, **k):
            raise FloatingPointError("synthetic blow-up")

        monkeypatch.setattr(pipeline, "solve_step", boom)
        rc = run_cli("reconstruct", "--input", work.data / "test",
                     "--refine", work.refine, "--predict", work.predict,
                     "--out", tmp_path / "r", "--items", 1)
        assert rc == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "numerical-failure"
        assert "step 0" in payload["message"]

    @pytest.mark.parametrize("solver", ["L1", "L1TV"])
    def test_non_finite_solve_on_last_step_is_4(self, work, tmp_path, capsys,
                                                monkeypatch, solver):
        """Finite data, but the last step's projections turn to inf."""
        import tcrtomo.pipeline as pipeline

        geom = ScanGeometry(**TINY_CONFIG["geometry"])
        last = geom.n_steps - 1
        last_angles = angle_schedule(geom, last)

        def operator(angles, offsets, size):
            op = operator_for_angles(angles, offsets, size)
            if (np.shape(angles) != last_angles.shape
                    or not np.allclose(angles, last_angles)):
                return op
            calls = itertools.count(1)
            blown = copy.copy(op)
            blown.forward = lambda x: (op.forward(x) if next(calls) <= 5
                                       else np.full(op.out_shape, np.inf))
            return blown

        monkeypatch.setattr(pipeline, "operator_for_angles", operator)
        cfg = dict(TINY_CONFIG, recon=dict(TINY_CONFIG["recon"],
                                           solver=solver))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with np.errstate(invalid="ignore"):
            rc = run_cli("reconstruct", "--config", cfg_path,
                         "--input", work.data / "test", "--refine",
                         work.refine, "--predict", work.predict,
                         "--out", tmp_path / "r", "--items", 1)
        assert rc == 4
        payload = stderr_payload(capsys)
        assert payload["error"] == "numerical-failure"
        assert f"solver failed at step {last}: non-finite iterate" in \
            payload["message"]

    @pytest.mark.parametrize("command", ["gen-data", "reconstruct"])
    def test_uncreatable_output_is_3(self, work, tmp_path, capsys, command):
        """An --out that is a regular file exits 3 and names the path."""
        out = tmp_path / "file"
        out.write_text("")
        argv = [command, "--config", work.cfg, "--out", out]
        if command == "gen-data":
            argv += ["--splits", "val"]
        else:
            argv += ["--input", work.data / "test", "--refine", work.refine,
                     "--predict", work.predict, "--items", 1]
        assert run_cli(*argv) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "io-error"
        assert str(out) in payload["message"]

    @pytest.mark.parametrize("items", [0, -1])
    def test_items_below_one_is_2(self, work, tmp_path, capsys, monkeypatch,
                                  items):
        """Rejected before any checkpoint is loaded or output written."""
        def no_load(*args):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr(cli, "_load_model", no_load)
        out = tmp_path / "r"
        rc = run_cli("reconstruct", "--config", work.cfg, "--input",
                     work.data / "test", "--refine", work.refine,
                     "--predict", work.predict, "--out", out,
                     "--items", items)
        assert rc == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "invalid-value"
        assert "--items" in payload["message"]
        assert not out.exists()

    def test_missing_dataset_is_3(self, work, tmp_path, capsys):
        rc = run_cli("evaluate", "--results", work.results,
                     "--data", tmp_path / "missing", "--out",
                     tmp_path / "m.csv")
        assert rc == 3
        assert stderr_payload(capsys)["error"] == "missing-artifact"

    def test_results_exceeding_dataset_is_3(self, work, tmp_path, capsys):
        # a 1-item dataset cannot score 2-item results
        cfg = tmp_path / "one.json"
        doc = json.loads(work.cfg.read_text())
        doc["phantom"]["n_test"] = 1
        cfg.write_text(json.dumps(doc))
        assert run_cli("gen-data", "--config", cfg, "--seed", 5, "--out",
                       tmp_path / "d", "--splits", "test") == 0
        rc = run_cli("evaluate", "--results", work.results,
                     "--data", tmp_path / "d" / "test", "--out",
                     tmp_path / "m.csv")
        assert rc == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert "no ground truth" in payload["message"]


class TestOneEvaluationPath:
    """Every per-frame metric row comes from pipeline.evaluate on the
    frames as saved, at the run's eval.data_range, and every command pairs
    a result item with its ground truth the same way."""

    @pytest.fixture(scope="class")
    def ranged(self, work, tmp_path_factory):
        """The work run's models reconstruct its 2-item test set under a
        config with eval.data_range = 2.0."""
        root = tmp_path_factory.mktemp("ranged")
        cfg = root / "range2.json"
        cfg.write_text(json.dumps(merge_config(
            TINY_CONFIG, {"eval": {"data_range": 2.0}})))
        results = root / "results"
        assert run_cli("reconstruct", "--config", cfg, "--input",
                       work.data / "test", "--refine", work.refine,
                       "--predict", work.predict, "--out", results) == 0
        return SimpleNamespace(cfg=cfg, results=results)

    def test_stored_rows_are_evaluate_on_the_saved_frames(self, work,
                                                          ranged):
        gts = read_dataset(work.data / "test").gt
        assert len(gts) == 2
        for i, gt in enumerate(gts):
            result, meta = load_result(ranged.results / f"item_{i:03d}")
            assert meta["metrics"] == evaluate(result, gt,
                                               data_range=2.0)["frames"]

    @pytest.mark.parametrize("item", [0, 1])
    def test_plot_rows_do_not_depend_on_data(self, work, ranged, tmp_path,
                                             item):
        """plot's CSV reads the same, byte for byte, whether its rows are
        the stored ones or recomputed from the dataset."""
        csvs = []
        for tag, data in (("stored", []), ("recomputed",
                                           ["--data", work.data / "test"])):
            out = tmp_path / tag
            assert run_cli("plot", "--config", ranged.cfg, "--results",
                           ranged.results, "--out", out, "--item", item,
                           *data) == 0
            csvs.append((out / f"item_{item:03d}_psnr.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("command", ["evaluate", "plot"])
    @pytest.mark.parametrize("case", ["missing-item", "other-shape"])
    def test_unpaired_ground_truth_is_3(self, work, tmp_path, capsys,
                                        command, case):
        """A dataset without result item 1, or whose frames have another
        image size, exits 3 naming the first unpaired result item (plot
        renders item 1) and the dataset."""
        data = tmp_path / "data"
        if case == "missing-item":
            geom, n = geometry_from(load_config(path=work.cfg)), 1
        else:
            geom, n = ScanGeometry(**{**TINY_CONFIG["geometry"],
                                      "image_size": 24}), 2
        write_dataset(generate_dataset(geom, n, seed=0), data)
        argv = ["--config", work.cfg, "--results", work.results, "--data",
                data]
        if command == "evaluate":
            argv = ["evaluate", *argv, "--out", tmp_path / "m.csv"]
        else:
            argv = ["plot", *argv, "--out", tmp_path / "p", "--item", 1]
        assert run_cli(*argv) == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        unpaired = 0 if (command, case) == ("evaluate", "other-shape") else 1
        assert str(work.results / f"item_{unpaired:03d}") in payload["message"]
        assert str(data) in payload["message"]
        assert ("no ground truth" if case == "missing-item"
                else "(4, 24, 24)") in payload["message"]


def test_frames_smaller_than_the_ssim_window(tmp_path):
    """An 8 px run, the smallest image size a reconstruction takes, is
    scored with a 7 px SSIM window by reconstruct, evaluate and plot."""
    cfg = tmp_path / "px8.json"
    cfg.write_text(json.dumps(merge_config(TINY_CONFIG, {
        "geometry": {"image_size": 8, "n_offsets": 11},
        "train_refine": {"epochs": 1}, "train_predict": {"epochs": 1}})))
    data, refine, predict, results = (tmp_path / d for d in
                                      ("data", "refine", "predict", "res"))
    assert run_cli("gen-data", "--config", cfg, "--seed", 5, "--out", data,
                   "--splits", "train,test") == 0
    assert run_cli("train-refine", "--config", cfg, "--seed", 5, "--data",
                   data / "train", "--out", refine) == 0
    assert run_cli("train-predict", "--config", cfg, "--seed", 5, "--data",
                   data / "train", "--refine", refine / "final",
                   "--out", predict) == 0
    assert run_cli("reconstruct", "--config", cfg, "--input", data / "test",
                   "--refine", refine / "final", "--predict",
                   predict / "final", "--out", results) == 0
    gt = read_dataset(data / "test").gt[1]
    result, meta = load_result(results / "item_001")
    assert [row["ssim"] for row in meta["metrics"]] == [
        ssim(g, x, window_size=7) for g, x in zip(gt, result.reconstructions)]
    assert run_cli("evaluate", "--results", results, "--data", data / "test",
                   "--out", tmp_path / "m.csv") == 0
    assert run_cli("plot", "--results", results, "--data", data / "test",
                   "--out", tmp_path / "plots", "--item", 1) == 0


class TestGenData:
    def test_byte_identical_reruns(self, work, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            proc = run_tcrtomo("gen-data", "--config", work.cfg, "--seed", 7,
                               "--out", out)
            assert proc.returncode == 0, proc.stderr
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_matches_fixture_run(self, work, tmp_path):
        # same (config, seed) through a fresh process reproduces the
        # in-process fixture dataset bit for bit
        out = tmp_path / "redo"
        proc = run_tcrtomo("gen-data", "--config", work.cfg, "--seed", 5,
                           "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert tree_bytes(out) == tree_bytes(work.data)

    def test_split_subset_and_seed_isolation(self, work, tmp_path):
        out = tmp_path / "only_test"
        assert run_cli("gen-data", "--config", work.cfg, "--seed", 5,
                       "--out", out, "--splits", "test") == 0
        assert sorted(os.listdir(out)) == ["test"]
        # the split does not depend on which other splits were generated
        assert tree_bytes(out / "test") == tree_bytes(work.data / "test")

    def test_split_metadata(self, work):
        for split in ("train", "val", "test"):
            meta = json.loads((work.data / split / "meta.json").read_text())
            assert meta["split"] == split
        train = json.loads((work.data / "train" / "meta.json").read_text())
        val = json.loads((work.data / "val" / "meta.json").read_text())
        assert train["seed"] != val["seed"]

    def test_splits_have_distinct_phantoms(self, work):
        train = read_dataset(work.data / "train")
        val = read_dataset(work.data / "val")
        assert not np.allclose(train.gt[0], val.gt[0])


class TestReconstructCli:
    def test_result_layout(self, work):
        names = sorted(os.listdir(work.results))
        assert names == ["item_000", "item_001"]
        result, meta = load_result(work.results / "item_000")
        assert result.reconstructions.shape == (4, 16, 16)
        assert result.predictions.shape == (3, 16, 16)
        assert meta["extra"]["item"] == 0
        assert meta["extra"]["solver"] == "L1"
        assert len(meta["metrics"]) == 4  # dataset input has ground truth

    def test_items_flag(self, work, tmp_path):
        out = tmp_path / "one"
        assert run_cli("reconstruct", "--config", work.cfg, "--input",
                       work.data / "test", "--refine", work.refine,
                       "--predict", work.predict, "--out", out,
                       "--items", 1) == 0
        assert sorted(os.listdir(out)) == ["item_000"]

    def test_old_checkpoint_layout_still_runs(self, work, tmp_path):
        """Checkpoints written before the format dropped AdamW state load
        the same models: reconstruct writes the same result, and
        train-predict trains the same prediction model from the old
        refinement checkpoint."""
        old = {}
        for role, path in (("refine", work.refine), ("predict", work.predict)):
            params, extra, _ = load_checkpoint(path)
            opt = init_adamw(params)
            for t in params.values():
                t.grad = np.ones(t.shape, dtype=np.float32)
            adamw_step(params, opt, lr=0.0)
            old[role] = tmp_path / role
            ref_save_checkpoint(old[role], params, extra=extra, optimizer=opt)
            assert "opt.m/head.w" in json.loads(
                (old[role] / "meta.json").read_text())["tensors"]
        out = tmp_path / "r"
        assert run_cli("reconstruct", "--config", work.cfg, "--seed", 5,
                       "--input", work.data / "test", "--refine",
                       old["refine"], "--predict", old["predict"],
                       "--out", out, "--items", 1) == 0
        assert (tree_bytes(out / "item_000")
                == tree_bytes(work.results / "item_000"))
        assert run_cli("train-predict", "--config", work.cfg, "--seed", 5,
                       "--data", work.data / "train", "--refine",
                       old["refine"], "--out", tmp_path / "p") == 0
        assert tree_bytes(tmp_path / "p" / "final") == tree_bytes(work.predict)

    def test_checkpoint_with_history_cap_still_runs(self, work, tmp_path,
                                                    capsys):
        """Checkpoints written while the model had a history cap store
        "max_context": 64 in their model entry. They load as the same
        models: reconstruct writes the same result, and train-predict
        trains the same prediction model. Any other unknown model key is
        still a bad entry."""
        capped = {}
        for role, path in (("refine", work.refine), ("predict", work.predict)):
            params, extra, _ = load_checkpoint(path)
            extra["model"]["max_context"] = 64
            capped[role] = tmp_path / role
            save_checkpoint(capped[role], params, extra=extra)
        out = tmp_path / "r"
        assert run_cli("reconstruct", "--config", work.cfg, "--seed", 5,
                       "--input", work.data / "test", "--refine",
                       capped["refine"], "--predict", capped["predict"],
                       "--out", out) == 0
        for item in os.listdir(work.results):
            assert tree_bytes(out / item) == tree_bytes(work.results / item)
        assert run_cli("train-predict", "--config", work.cfg, "--seed", 5,
                       "--data", work.data / "train", "--refine",
                       capped["refine"], "--out", tmp_path / "p") == 0
        assert tree_bytes(tmp_path / "p" / "final") == tree_bytes(work.predict)

        meta = json.loads((capped["refine"] / "meta.json").read_text())
        meta["extra"]["model"]["max_contxt"] = 64
        (capped["refine"] / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run_cli("reconstruct", "--input", work.data / "test",
                       "--refine", capped["refine"], "--predict",
                       capped["predict"], "--out", tmp_path / "bad") == 3
        payload = stderr_payload(capsys)
        assert payload["error"] == "format-mismatch"
        assert "max_contxt" in payload["message"]

    def test_alpha_zero_matches_direct_solver(self, work, tmp_path):
        """With no coupling the CLI output equals the bare FISTA solve."""
        out = tmp_path / "a0"
        assert run_cli("reconstruct", "--config", work.cfg, "--input",
                       work.data / "test", "--refine", work.refine,
                       "--predict", work.predict, "--out", out,
                       "--solver", "l1", "--alpha-init", 0.0,
                       "--alpha-rest", 0.0, "--items", 1) == 0
        result, _ = load_result(out / "item_000")
        ds = read_dataset(work.data / "test")
        sino = ds.sinograms[0]
        for t in range(4):
            if t == 0:
                prior = result.refined[0].astype(np.float64)
            else:
                prior = result.predictions[t - 1].astype(np.float64)
            op = operator_for_angles(sino.angles[t], sino.offsets, 16)
            x, _ = l1_tcr_fista(op, sino.frames[t], prior, 0.0, x0=prior,
                                max_iter=40)
            assert np.allclose(x.astype(np.float32),
                               result.reconstructions[t].astype(np.float32),
                               rtol=1e-6, atol=1e-7), f"frame {t}"

    def test_sinogram_set_input(self, work, tmp_path):
        """Measurement-only directories reconstruct identically."""
        ds = read_dataset(work.data / "test")
        scan_dir = tmp_path / "scans"
        write_sinogram_set(ds.sinograms, 16, scan_dir)
        out = tmp_path / "from_scans"
        assert run_cli("reconstruct", "--config", work.cfg, "--input",
                       scan_dir, "--refine", work.refine, "--predict",
                       work.predict, "--out", out) == 0
        for item in ("item_000", "item_001"):
            a = (work.results / item / "recon.f32").read_bytes()
            b = (out / item / "recon.f32").read_bytes()
            assert a == b
        _, meta = load_result(out / "item_000")
        assert meta["metrics"] == []  # no ground truth available

    def test_deterministic_flag_byte_identical(self, work, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            proc = run_tcrtomo("reconstruct", "--config", work.cfg,
                               "--input", work.data / "test",
                               "--refine", work.refine,
                               "--predict", work.predict, "--out", out,
                               "--items", 1, "--deterministic")
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])


def count_meta_reads(monkeypatch):
    """List of the directories whose meta.json is read from now on.

    artifacts.read_meta is replaced in every module that imports it."""
    from tcrtomo import artifacts, checkpoint, datasets, pipeline
    real, reads = artifacts.read_meta, []

    def counting(path, *formats):
        reads.append(os.path.abspath(path))
        return real(path, *formats)

    for module in (artifacts, checkpoint, datasets, pipeline):
        monkeypatch.setattr(module, "read_meta", counting)
    return reads


class TestMetaReadOnce:
    """A command parses each input directory's meta.json once."""

    @pytest.mark.parametrize("kind", ["dataset", "sinogram-set"])
    def test_reconstruct(self, work, tmp_path, monkeypatch, kind):
        src = work.data / "test"
        if kind == "sinogram-set":
            src = tmp_path / "scans"
            write_sinogram_set(read_dataset(work.data / "test").sinograms,
                               16, src)
        reads = count_meta_reads(monkeypatch)
        assert run_cli("reconstruct", "--config", work.cfg, "--input", src,
                       "--refine", work.refine, "--predict", work.predict,
                       "--out", tmp_path / "r", "--items", 1) == 0
        assert reads.count(os.path.abspath(src)) == 1

    def test_train_refine(self, work, tmp_path, monkeypatch):
        import tcrtomo.training as training
        seen = []

        def fake_train(ds, tcfg, model_cfg, val_dataset=None):
            seen.append((len(ds), len(val_dataset)))
            return None, [{"split": "train", "loss": 0.0}]

        monkeypatch.setattr(training, "train_refinement", fake_train)
        reads = count_meta_reads(monkeypatch)
        train, val = work.data / "train", work.data / "val"
        assert run_cli("train-refine", "--config", work.cfg, "--data", train,
                       "--val", val, "--out", tmp_path / "o") == 0
        assert seen == [(3, 2)]
        assert sorted(reads) == sorted([os.path.abspath(train),
                                        os.path.abspath(val)])


class TestEvaluateCli:
    def test_summary_csv(self, work, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run_cli("evaluate", "--results", work.results, "--data",
                       work.data / "test", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject", "scope", "metric", "mean", "std"]
        assert len(rows) == 7
        subjects = {r[0] for r in rows[1:]}
        assert subjects == {"reconstruction", "prior"}
        scopes = [(r[0], r[1], r[2]) for r in rows[1:]]
        assert ("reconstruction", "last_frame", "psnr") in scopes
        assert ("prior", "all_frames", "ssim") in scopes
        for row in rows[1:]:
            float(row[3]), float(row[4])  # parse cleanly

    def test_gt_vs_gt_reports_inf_and_one(self, work, tmp_path):
        ds = read_dataset(work.data / "test")
        results = tmp_path / "perfect"
        for i, gt in enumerate(ds.gt):
            fake = ReconResult(
                reconstructions=np.asarray(gt, dtype=np.float64),
                predictions=np.asarray(gt[1:], dtype=np.float32),
                refined=np.asarray(gt[:2], dtype=np.float32),
                initial=np.asarray(gt[:2], dtype=np.float64))
            save_result(results / f"item_{i:03d}", fake, extra={"item": i})
        out = tmp_path / "perfect.csv"
        assert run_cli("evaluate", "--results", results, "--data",
                       work.data / "test", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = {(r["subject"], r["scope"], r["metric"]): r
                    for r in csv.DictReader(fh)}
        # float32 storage round-trips the float32 ground truth exactly
        assert rows[("reconstruction", "all_frames", "psnr")]["mean"] == "inf"
        assert rows[("reconstruction", "last_frame", "psnr")]["mean"] == "inf"
        assert float(rows[("reconstruction", "all_frames", "ssim")]["mean"]) \
            == pytest.approx(1.0, abs=1e-12)
        assert float(rows[("reconstruction", "last_frame", "ssim")]["mean"]) \
            == pytest.approx(1.0, abs=1e-12)


class TestPlotCli:
    def test_pgm_grid_with_reference(self, work, tmp_path):
        out = tmp_path / "plots"
        assert run_cli("plot", "--results", work.results, "--data",
                       work.data / "test", "--out", out, "--item", 1) == 0
        path = out / "item_001.pgm"
        blob = path.read_bytes()
        header, rest = blob.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        maxval, pixels = rest.split(b"\n", 1)
        w, h = (int(v) for v in dims.split())
        # 4 frames of 16 px + 3 separators wide; 3 rows + 2 separators high
        assert (w, h) == (4 * 16 + 3, 3 * 16 + 2)
        assert maxval == b"255"
        assert len(pixels) == w * h

    def test_grid_without_reference(self, work, tmp_path):
        out = tmp_path / "plots2"
        assert run_cli("plot", "--results", work.results, "--out", out) == 0
        blob = (out / "item_000.pgm").read_bytes()
        dims = blob.split(b"\n")[1]
        w, h = (int(v) for v in dims.split())
        assert (w, h) == (4 * 16 + 3, 2 * 16 + 1)

    def test_psnr_over_time_csv(self, work, tmp_path):
        out = tmp_path / "plots3"
        assert run_cli("plot", "--results", work.results, "--data",
                       work.data / "test", "--out", out) == 0
        with open(out / "item_000_psnr.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert [r["step"] for r in rows] == ["0", "1", "2", "3"]
        assert rows[0]["psnr_prior"] == ""  # step 0 has no prior
        assert float(rows[3]["psnr"]) > 0
        assert float(rows[1]["psnr_prior"]) > 0

    def test_png_output(self, work, tmp_path):
        """The PNG is 8-bit grayscale at the PGM's size, its rows without
        their filter byte are the PGM's pixel bytes, and a second run
        writes the same file."""
        out, again = tmp_path / "plots4", tmp_path / "plots5"
        for d in (out, again):
            assert run_cli("plot", "--results", work.results, "--out", d,
                           "--png") == 0
        png = (out / "item_000.png").read_bytes()
        assert png == (again / "item_000.png").read_bytes()
        assert png[:8] == b"\x89PNG\r\n\x1a\n"
        chunks, pos = {}, 8
        while pos < len(png):
            (size,) = struct.unpack(">I", png[pos:pos + 4])
            tag, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + size]
            (crc,) = struct.unpack(">I", png[pos + 8 + size:pos + 12 + size])
            assert crc == zlib.crc32(tag + data)
            chunks[tag] = chunks.get(tag, b"") + data
            pos += 12 + size
        assert list(chunks) == [b"IHDR", b"IDAT", b"IEND"]
        _, dims, _, pixels = (out / "item_000.pgm").read_bytes().split(b"\n", 3)
        w, h = map(int, dims.split())
        assert struct.unpack(">IIBBBBB", chunks[b"IHDR"]) == (w, h, 8, 0, 0,
                                                              0, 0)
        rows = np.frombuffer(zlib.decompress(chunks[b"IDAT"]),
                             np.uint8).reshape(h, w + 1)
        assert not rows[:, 0].any()
        assert rows[:, 1:].tobytes() == pixels

    def test_item_directory_selects_its_stored_item(self, work, tmp_path,
                                                    capsys):
        """--results may name one item directory: its meta.json's item is
        its index, for --item and for the output name alike."""
        whole, single = tmp_path / "whole", tmp_path / "single"
        assert run_cli("plot", "--results", work.results, "--data",
                       work.data / "test", "--out", whole, "--item", 1) == 0
        assert run_cli("plot", "--results", work.results / "item_001",
                       "--data", work.data / "test", "--out", single,
                       "--item", 1) == 0
        assert tree_bytes(single) == tree_bytes(whole)
        assert run_cli("plot", "--results", work.results / "item_001",
                       "--out", tmp_path / "p", "--item", 0) == 3
        assert stderr_payload(capsys)["error"] == "missing-artifact"

    def test_missing_item(self, work, tmp_path, capsys):
        rc = run_cli("plot", "--results", work.results, "--out",
                     tmp_path / "p", "--item", 99)
        assert rc == 3
        assert stderr_payload(capsys)["error"] == "missing-artifact"

    def test_write_pgm_rescale(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 2.0]]))
        blob = path.read_bytes()
        assert blob == b"P5\n2 2\n255\n" + bytes([0, 255, 128, 255])

    def test_write_pgm_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "t.pgm", np.zeros((2, 2, 2)))


class TestExternalSinograms:
    def test_roundtrip(self, work, tmp_path):
        ds = read_dataset(work.data / "val")
        path = tmp_path / "scans"
        write_sinogram_set(ds.sinograms, 16, path)
        sinos, size = load_external_sinogram(path)
        assert size == 16
        assert len(sinos) == len(ds.sinograms)
        for orig, loaded in zip(ds.sinograms, sinos):
            assert len(loaded.frames) == len(orig.frames)
            for a, b in zip(orig.frames, loaded.frames):
                assert np.array_equal(np.asarray(a, dtype=np.float32),
                                      np.asarray(b, dtype=np.float32))
            for a, b in zip(orig.angles, loaded.angles):
                assert np.allclose(a, b)

    def test_offset_count_mismatch_rejected(self, work, tmp_path):
        ds = read_dataset(work.data / "val")
        path = tmp_path / "scans"
        write_sinogram_set(ds.sinograms, 16, path)
        meta_path = path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["offsets"] = meta["offsets"] + [1.5]  # 24 declared, 23 stored
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatasetFormatError):
            load_external_sinogram(path)

    def test_long_sequence_varying_angles(self, work, tmp_path):
        """30 steps, 10 angles at t=0 then 3: loads and reconstructs."""
        from tcrtomo.datasets import Sinogram
        geom_size = 16
        offsets = np.linspace(-1.0, 1.0, 23)
        frames, angles = [], []
        truth = []
        disc = np.zeros((geom_size, geom_size))
        yy, xx = np.mgrid[:geom_size, :geom_size]
        for t in range(30):
            n_ang = 10 if t == 0 else 3
            ang = (np.arange(n_ang) / n_ang) * np.pi + 0.01 * t
            mask = ((xx - 8 - 2 * np.sin(0.2 * t)) ** 2
                    + (yy - 8) ** 2) < 16.0
            img = np.where(mask, 0.8, 0.0)
            truth.append(img)
            op = operator_for_angles(ang, offsets, geom_size)
            frames.append((op.matrix @ img.ravel()).reshape(op.out_shape))
            angles.append(ang)
        path = tmp_path / "long"
        write_sinogram_set([Sinogram(frames, angles, offsets)], geom_size,
                           path)
        sinos, size = load_external_sinogram(path)
        assert size == 16 and len(sinos[0].frames) == 30
        assert sinos[0].frames[0].shape == (10, 23)
        assert sinos[0].frames[29].shape == (3, 23)
        out = tmp_path / "long_out"
        assert run_cli("reconstruct", "--config", work.cfg, "--input", path,
                       "--refine", work.refine, "--predict", work.predict,
                       "--out", out) == 0
        result, _ = load_result(out / "item_000")
        assert result.reconstructions.shape == (30, 16, 16)
        assert np.all(np.isfinite(result.reconstructions))


class TestThreadEnv:
    def test_deterministic_forces_one(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        cli._apply_thread_env(["reconstruct", "--deterministic"])
        for var in cli._THREAD_VARS:
            assert os.environ[var] == "1"

    def test_cap_fills_unset_only(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("TCR_THREADS", "2")
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        cli._apply_thread_env(["gen-data"])
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "4"

    def test_no_env_no_changes(self, monkeypatch):
        for var in cli._THREAD_VARS + ("TCR_THREADS",):
            monkeypatch.delenv(var, raising=False)
        cli._apply_thread_env(["gen-data"])
        for var in cli._THREAD_VARS:
            assert var not in os.environ
