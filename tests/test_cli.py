"""Command-line surface: config schema, exit codes, artifact round trips."""

import csv
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from tcrtomo import cli
from tcrtomo.cli import main, write_pgm
from tcrtomo.config import (default_config, geometry_from, load_config,
                            merge_config, recon_config_from, stt_config_from,
                            train_config_from, uar_configs_from,
                            validate_config)
from tcrtomo.datasets import (load_external_sinogram, read_dataset,
                              write_sinogram_set)
from tcrtomo.errors import (ConfigError, DatasetFormatError,
                            MissingArtifactError)
from tcrtomo.geometry import operator_for_angles
from tcrtomo.pipeline import ReconResult, load_result, save_result
from tcrtomo.solvers import l1_tcr_fista

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
        mcfg = stt_config_from(cfg["train_predict"], 64, max_context=11)
        assert (mcfg.model_dim, mcfg.heads, mcfg.layers) == (512, 8, 6)
        assert mcfg.image_size == 64 and mcfg.max_context == 11

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


class TestGenData:
    def test_byte_identical_reruns(self, work, tmp_path):
        env = dict(os.environ)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "tcrtomo", "gen-data", "--config",
                 str(work.cfg), "--seed", "7", "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_matches_fixture_run(self, work, tmp_path):
        # same (config, seed) through a fresh process reproduces the
        # in-process fixture dataset bit for bit
        out = tmp_path / "redo"
        proc = subprocess.run(
            [sys.executable, "-m", "tcrtomo", "gen-data", "--config",
             str(work.cfg), "--seed", "5", "--out", str(out)],
            capture_output=True, text=True)
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
            proc = subprocess.run(
                [sys.executable, "-m", "tcrtomo", "reconstruct",
                 "--config", str(work.cfg), "--input",
                 str(work.data / "test"), "--refine", str(work.refine),
                 "--predict", str(work.predict), "--out", str(out),
                 "--items", "1", "--deterministic"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])


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
        pytest.importorskip("matplotlib")
        out = tmp_path / "plots4"
        assert run_cli("plot", "--results", work.results, "--out", out,
                       "--png") == 0
        png = (out / "item_000.png").read_bytes()
        assert png[:8] == b"\x89PNG\r\n\x1a\n"

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
