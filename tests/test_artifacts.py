"""The artifact layer: reference-identical writers, load checks, one module.

Every artifact is a directory with one meta.json and raw little-endian
float32 payloads.  The four reference writers below are the layout as it
was first defined; the package's writers must reproduce their bytes.
The corpus then breaks each format in every way a file can be broken,
a directory standing in for a file included, and checks that loading
raises DatasetFormatError naming the file, and that the CLI turns it
into exit 3 format-mismatch.
"""

import ast
import copy
import csv
import functools
import json
import math
import operator
import os
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tcrtomo
from tcrtomo import cli
from tcrtomo.checkpoint import load_checkpoint, save_checkpoint
from tcrtomo.cli import main
from tcrtomo.datasets import (load_external_sinogram, read_dataset,
                              write_dataset, write_sinogram_set)
from tcrtomo.errors import DatasetFormatError, MissingArtifactError
from tcrtomo.geometry import ScanGeometry
from tcrtomo.optim import adamw_step, init_adamw
from tcrtomo.phantoms import generate_dataset
from tcrtomo.pipeline import ReconResult, load_result, save_result
from tcrtomo.stt import SttConfig, init_stt_params

GEOM = ScanGeometry(image_size=16, n_steps=4, n_angles_init=6,
                    n_angles_rest=3, n_offsets=23)
MODEL = SttConfig(model_dim=16, heads=2, layers=1, image_size=16)
FORMATS = ("dataset", "sinogram", "checkpoint", "result")
LOADERS = {"dataset": read_dataset, "sinogram": load_external_sinogram,
           "checkpoint": load_checkpoint, "result": load_result}


# ------------------------------------------------- reference writers

def ref_write_f32(path, arr):
    np.asarray(arr, dtype="<f4").tofile(path)


def ref_dump_meta(path, meta):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def ref_write_dataset(ds, path):
    os.makedirs(path, exist_ok=True)
    items = []
    for i, (gt, sino) in enumerate(zip(ds.gt, ds.sinograms)):
        gt_file = f"gt_{i}.f32"
        ref_write_f32(os.path.join(path, gt_file), gt)
        sino_files = []
        for t, frame in enumerate(sino.frames):
            fname = f"sino_{i}_t{t}.f32"
            ref_write_f32(os.path.join(path, fname), frame)
            sino_files.append(fname)
        items.append({
            "index": i,
            "gt": {"file": gt_file, "shape": list(gt.shape)},
            "sino": [{"file": f, "shape": list(fr.shape),
                      "angles": [float(a) for a in ang]}
                     for f, fr, ang in zip(sino_files, sino.frames,
                                           sino.angles)],
        })
    meta = {"format": "tcr-dataset-v1", "endianness": "LE",
            "dtype": "float32", "geometry": ds.geometry.to_dict(),
            "n_items": len(ds.gt), "seed": ds.seed, "split": ds.split,
            "noise_level": ds.noise_level, "items": items}
    if ds.specs is not None:
        meta["phantoms"] = ds.specs
    ref_dump_meta(os.path.join(path, "meta.json"), meta)


def ref_write_sinogram_set(sinograms, image_size, path):
    os.makedirs(path, exist_ok=True)
    items = []
    for i, sino in enumerate(sinograms):
        entry = []
        for t, frame in enumerate(sino.frames):
            fname = f"sino_{i}_t{t}.f32"
            ref_write_f32(os.path.join(path, fname), frame)
            entry.append({"file": fname, "shape": list(frame.shape),
                          "angles": [float(a) for a in sino.angles[t]]})
        items.append({"index": i, "sino": entry})
    meta = {"format": "tcr-sinogram-v1", "endianness": "LE",
            "dtype": "float32", "image_size": int(image_size),
            "offsets": [float(o) for o in sinograms[0].offsets],
            "n_items": len(sinograms), "items": items}
    ref_dump_meta(os.path.join(path, "meta.json"), meta)


def ref_save_checkpoint(path, tensors, extra=None, optimizer=None):
    arrays = {name: np.ascontiguousarray(getattr(t, "data", t),
                                         dtype=np.float32)
              for name, t in tensors.items()}
    extra = dict(extra or {})
    if optimizer is not None:
        for key in ("m", "v"):
            arrays.update({f"opt.{key}/{k}": np.ascontiguousarray(
                v, dtype=np.float32) for k, v in optimizer[key].items()})
        extra["optimizer"] = {"betas": list(optimizer["betas"]),
                              "eps": optimizer["eps"],
                              "weight_decay": optimizer["weight_decay"],
                              "step": optimizer["step"]}
    os.makedirs(path, exist_ok=True)
    meta = {"format": "tcr-checkpoint-v1", "tensors": {}, "extra": extra}
    offset = 0
    for name in sorted(arrays):
        meta["tensors"][name] = {"shape": list(arrays[name].shape),
                                 "offset": offset}
        offset += arrays[name].nbytes
    with open(os.path.join(path, "weights.f32"), "wb") as fh:
        for name in sorted(arrays):
            fh.write(arrays[name].astype("<f4", copy=False).tobytes())
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")


def ref_save_result(path, result, extra=None):
    os.makedirs(path, exist_ok=True)
    t, h, _ = result.reconstructions.shape
    meta = {"format": "tcr-result-v1", "n_frames": t, "image_size": h,
            "extra": dict(extra or {}), "metrics": result.metrics,
            "stop_reasons": [r["report"].stop_reason
                             for r in result.reports],
            "iterations": [r["report"].iterations for r in result.reports]}
    ref_dump_meta(os.path.join(path, "meta.json"), meta)
    ref_write_f32(os.path.join(path, "recon.f32"),
                  result.reconstructions.astype(np.float32))
    ref_write_f32(os.path.join(path, "priors.f32"), result.predictions)
    ref_write_f32(os.path.join(path, "refined.f32"), result.refined)
    ref_write_f32(os.path.join(path, "initial.f32"),
                  result.initial.astype(np.float32))


# ------------------------------------------------------ good artifacts

def _dataset():
    return generate_dataset(GEOM, 2, seed=3, noise_level=0.01, split="test")


def _checkpoint_state():
    params = init_stt_params(MODEL, seed=0)
    opt = init_adamw(params)
    for t in params.values():
        t.grad = np.full(t.shape, 0.5, dtype=np.float32)
    adamw_step(params, opt, lr=1e-3)
    return params, {"model": MODEL.to_dict(), "epoch": 3}, opt


def _result():
    rng = np.random.default_rng(4)
    size = GEOM.image_size
    reports = [{"report": SimpleNamespace(stop_reason=r, iterations=n)}
               for r, n in (("max_iter", 200), ("discrepancy", 7),
                            ("converged", 143), ("stationary", 1))]
    metrics = [{"step": t, "psnr": 20.0 + t, "ssim": 0.5} for t in range(4)]
    metrics[0]["psnr"] = float("inf")
    for row in metrics[1:]:
        row.update(psnr_prior=15.0 + row["step"], ssim_prior=0.4)
    return ReconResult(reconstructions=rng.random((4, size, size)),
                       predictions=rng.random((3, size, size),
                                              dtype=np.float32),
                       refined=rng.random((2, size, size), dtype=np.float32),
                       initial=rng.random((2, size, size)),
                       reports=reports, metrics=metrics)


def write_good(fmt, path, ref=False):
    if fmt == "dataset":
        (ref_write_dataset if ref else write_dataset)(_dataset(), path)
    elif fmt == "sinogram":
        (ref_write_sinogram_set if ref else write_sinogram_set)(
            _dataset().sinograms, GEOM.image_size, path)
    elif fmt == "checkpoint":
        params, extra, _ = _checkpoint_state()
        (ref_save_checkpoint if ref else save_checkpoint)(path, params,
                                                          extra=extra)
    else:
        (ref_save_result if ref else save_result)(path, _result(),
                                                  extra={"item": 0})


def write_old_checkpoint(path):
    """The good checkpoint in the layout written before checkpoints
    dropped AdamW state: moments under opt.m/ and opt.v/, scalars in
    extra["optimizer"]."""
    params, extra, opt = _checkpoint_state()
    ref_save_checkpoint(path, params, extra=extra, optimizer=opt)


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """One good artifact per format; the checkpoint in the old layout, so
    the corpus and the round trip also cover the loader's moment path."""
    root = tmp_path_factory.mktemp("good")
    for fmt in FORMATS:
        if fmt == "checkpoint":
            write_old_checkpoint(str(root / fmt))
        else:
            write_good(fmt, str(root / fmt))
    return root


def tree_bytes(path):
    return {name: (Path(path) / name).read_bytes()
            for name in sorted(os.listdir(path))}


# --------------------------------------------------------- byte identity

@pytest.mark.parametrize("fmt", FORMATS)
def test_writers_match_reference_bytes(tmp_path, fmt):
    write_good(fmt, str(tmp_path / "new"))
    write_good(fmt, str(tmp_path / "ref"), ref=True)
    assert tree_bytes(tmp_path / "new") == tree_bytes(tmp_path / "ref")


def test_round_trips(good):
    ds, back = _dataset(), read_dataset(good / "dataset")
    assert back.geometry.to_dict() == GEOM.to_dict()
    assert (back.seed, back.split, back.specs) == (ds.seed, ds.split,
                                                   ds.specs)
    for a, b in zip(ds.gt, back.gt):
        assert np.array_equal(a, b)
    sinos, size = load_external_sinogram(good / "sinogram")
    assert size == 16
    for orig, loaded in zip(ds.sinograms, sinos):
        assert [f.shape for f in loaded.frames] == [(6, 23), (6, 23),
                                                    (3, 23), (3, 23)]
        for a, b in zip(orig.frames, loaded.frames):
            assert np.array_equal(a.astype(np.float32), b)
    params, extra, opt = _checkpoint_state()
    tensors, back_extra, back_opt = load_checkpoint(good / "checkpoint")
    assert back_extra == extra and back_opt["step"] == opt["step"]
    for k in params:
        assert np.array_equal(tensors[k].data, params[k].data)
        assert np.array_equal(back_opt["m"][k], opt["m"][k])
        assert np.array_equal(back_opt["v"][k], opt["v"][k])
    result, meta = load_result(good / "result")
    assert meta["stop_reasons"][1] == "discrepancy"
    assert meta["iterations"] == [200, 7, 143, 1]
    assert meta["metrics"][0]["psnr"] == float("inf")
    assert np.array_equal(result.predictions, _result().predictions)


def _root(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def test_checkpoint_tensors_are_views_of_one_blob(tmp_path):
    """A checkpoint that holds only the model loads without a copy."""
    write_good("checkpoint", str(tmp_path / "ckpt"))
    tensors, _, opt = load_checkpoint(tmp_path / "ckpt")
    assert opt is None
    roots = {id(_root(t.data)): _root(t.data) for t in tensors.values()}
    assert len(roots) == 1
    (blob,) = roots.values()
    assert blob.size == sum(t.data.size for t in tensors.values())


def test_old_checkpoint_model_holds_no_moment_memory(good):
    """The model of an old checkpoint does not pin the blob that holds its
    AdamW moments; the moments still load as stored."""
    tensors, _, opt = load_checkpoint(good / "checkpoint")
    moments = [a for key in ("m", "v") for a in opt[key].values()]
    moment_roots = {id(_root(a)) for a in moments}
    assert all(id(_root(t.data)) not in moment_roots
               for t in tensors.values())
    params, _, ref = _checkpoint_state()
    assert sorted(opt["m"]) == sorted(opt["v"]) == sorted(params)
    for key in ("m", "v"):
        for name, arr in opt[key].items():
            assert np.array_equal(arr, ref[key][name])
    for name, t in tensors.items():
        assert np.array_equal(t.data, params[name].data)


# ------------------------------------------------------ bad-artifact corpus

def meta_text(text):
    def mutate(d):
        (d / "meta.json").write_text(text)
        return [str(d / "meta.json")]
    return mutate


def meta_edit(edit, named="meta.json"):
    """Edit meta.json; the message must name the file `named`."""
    def mutate(d):
        meta = json.loads((d / "meta.json").read_text())
        edit(meta)
        (d / "meta.json").write_text(json.dumps(meta))
        return [str(d / named)]
    return mutate


def payload(name, edit):
    def mutate(d):
        (d / name).write_bytes(edit((d / name).read_bytes()))
        return [str(d / name)]
    return mutate


def as_directory(name):
    """Put an empty directory where file `name` was."""
    def mutate(d):
        os.remove(d / name)
        (d / name).mkdir()
        return [str(d / name)]
    return mutate


def blob(edit, pick):
    """Edit weights.f32; the message must also name the tensor that pick
    (min or max by offset) chooses."""
    def mutate(d):
        tensors = json.loads((d / "meta.json").read_text())["tensors"]
        name = pick(tensors, key=lambda k: tensors[k]["offset"])
        return payload("weights.f32", edit)(d) + [repr(name)]
    return mutate


def truncate(raw):
    return raw[:-4]


def extend(raw):
    return raw + raw[:4]


def first_to(value):
    return lambda raw: np.float32(value).tobytes() + raw[4:]


def last_to(value):
    return lambda raw: raw[:-4] + np.float32(value).tobytes()


def _extra_angle(meta):
    meta["items"][0]["sino"][1]["angles"].append(0.5)


def _extra_angle_and_row(meta):
    _extra_angle(meta)
    meta["items"][0]["sino"][1]["shape"][0] += 1


def _nest_angles(meta):
    entry = meta["items"][0]["sino"][0]
    entry["angles"] = [[a] for a in entry["angles"]]


def gt_restated(i, shape):
    """Rewrite item i's ground truth at a smaller shape, its stated shape
    and payload agreeing with each other but not with the geometry."""
    def mutate(d):
        meta = json.loads((d / "meta.json").read_text())
        meta["items"][i]["gt"]["shape"] = list(shape)
        (d / "meta.json").write_text(json.dumps(meta))
        name = d / f"gt_{i}.f32"
        name.write_bytes(name.read_bytes()[:4 * int(np.prod(shape))])
        return [str(name)]
    return mutate


def _delete(*keys):
    def edit(meta):
        for key in keys[:-1]:
            meta = meta[key]
        del meta[keys[-1]]
    return edit


def _set(value, *keys):
    def edit(meta):
        for key in keys[:-1]:
            meta = meta[key]
        meta[keys[-1]] = value
    return edit


def _grow_first_axis(entry):
    entry["shape"][0] += 1


def _first_tensor(edit):
    def apply(meta):
        edit(meta["tensors"][min(meta["tensors"])])
    return apply


def also_naming(mutate, words):
    """mutate, whose error must also carry words."""
    return lambda d: mutate(d) + [words]


def _angle_to(value):
    return _set(value, "items", 0, "sino", 2, "angles", 0)


def _no_angles(d):
    """Step 2 of item 0 gets an empty angle list and a (0, n) payload."""
    meta = json.loads((d / "meta.json").read_text())
    entry = meta["items"][0]["sino"][2]
    entry["angles"], entry["shape"][0] = [], 0
    (d / "meta.json").write_text(json.dumps(meta))
    (d / entry["file"]).write_bytes(b"")
    return [str(d / "meta.json")]


def _geometry_angles(n_init, n_rest):
    """A geometry whose angle counts the items' angle lists do not hold."""
    def edit(meta):
        meta["geometry"].update(n_angles_init=n_init, n_angles_rest=n_rest)
    return edit


def _metric(value, t, *keys):
    """Set the stored metric row t (or its entry keys[0]) to value."""
    return meta_edit(_set(value, "metrics", t, *keys))


# stored metric rows: load_result reads them, and plot without --data
# writes them to the _psnr.csv
METRIC_CASES = [
    ("metrics-a-string", meta_edit(_set("x", "metrics"))),
    ("metrics-null", meta_edit(_set(None, "metrics"))),
    ("metrics-row-a-string", _metric("x", 1)),
    ("metrics-row-missing", meta_edit(_delete("metrics", 3))),
    ("metrics-step-mismatch", _metric(2, 1, "step")),
    ("metrics-psnr-a-word", _metric("x", 2, "psnr")),
    ("metrics-psnr-a-bool", _metric(True, 2, "psnr")),
    ("metrics-ssim-null", _metric(None, 0, "ssim")),
    ("metrics-ssim-nan", _metric(np.nan, 3, "ssim")),
    ("metrics-ssim-inf", _metric(np.inf, 3, "ssim")),
    ("metrics-psnr-minus-inf", _metric(-np.inf, 1, "psnr")),
    ("metrics-prior-missing", meta_edit(_delete("metrics", 1,
                                                "psnr_prior"))),
]

COMMON = [
    ("not-json", meta_text("{not json")),
    ("not-object", meta_text("[1, 2]")),
    ("wrong-tag", meta_edit(_set("tcr-other-v1", "format"))),
    ("meta-a-directory", as_directory("meta.json")),
]

CORPUS = {
    "dataset": COMMON + [
        ("missing-geometry", meta_edit(_delete("geometry"))),
        ("missing-gt", meta_edit(_delete("items", 0, "gt"))),
        ("sino-not-a-list", meta_edit(_set(7, "items", 0, "sino"))),
        ("geometry-not-a-dict", meta_edit(_set([16], "geometry"))),
        ("geometry-out-of-bounds",
         meta_edit(_set(1, "geometry", "n_offsets"))),
        ("payload-a-directory", as_directory("gt_0.f32")),
        ("truncated", payload("gt_0.f32", truncate)),
        ("overlong", payload("sino_1_t2.f32", extend)),
        ("nan", payload("gt_1.f32", first_to(np.nan))),
        ("inf", payload("sino_0_t0.f32", last_to(-np.inf))),
        ("angle-count", meta_edit(_extra_angle)),
        ("angle-count-and-shape",
         meta_edit(_extra_angle_and_row, named="sino_0_t1.f32")),
        ("gt-frame-count", gt_restated(0, (3, 16, 16))),
        ("gt-image-size", gt_restated(1, (4, 16, 15))),
        ("sino-frame-count", meta_edit(_delete("items", 1, "sino", 3))),
        ("n-items-mismatch", also_naming(meta_edit(_set(5, "n_items")),
                                         "n_items is 5, items lists 2")),
        ("dtype-float64", also_naming(meta_edit(_set("float64", "dtype")),
                                      "dtype")),
        ("endianness-big", also_naming(meta_edit(_set("BE", "endianness")),
                                       "endianness")),
        ("index-mismatch", also_naming(
            meta_edit(_set(0, "items", 1, "index")), "items[1].index")),
        ("geometry-angle-counts", also_naming(
            meta_edit(_geometry_angles(7, 5)), "item 0 step 0")),
    ],
    "sinogram": COMMON + [
        ("missing-offsets", meta_edit(_delete("offsets"))),
        ("missing-angles", meta_edit(_delete("items", 1, "sino", 2,
                                             "angles"))),
        ("image-size-a-list", meta_edit(_set([16], "image_size"))),
        ("image-size-zero", meta_edit(_set(0, "image_size"))),
        ("image-size-one", meta_edit(_set(1, "image_size"))),
        ("items-a-dict", meta_edit(_set({"a": 1}, "items"))),
        ("offset-count", meta_edit(lambda m: m["offsets"].append(1.5))),
        ("offsets-a-number", meta_edit(_set(0.5, "offsets"))),
        ("angles-nested", meta_edit(_nest_angles)),
        ("angle-nan", also_naming(meta_edit(_angle_to(np.nan)), "step 2")),
        ("angle-inf", also_naming(meta_edit(_angle_to(np.inf)), "step 2")),
        ("angles-empty", also_naming(_no_angles, "step 2")),
        ("offset-nan", also_naming(meta_edit(_set(np.nan, "offsets", 0)),
                                   "offsets")),
        ("payload-a-directory", as_directory("sino_0_t1.f32")),
        ("truncated", payload("sino_0_t1.f32", truncate)),
        ("overlong", payload("sino_1_t0.f32", extend)),
        ("nan", payload("sino_0_t3.f32", first_to(np.nan))),
        ("inf", payload("sino_1_t3.f32", last_to(np.inf))),
        ("angle-count", meta_edit(_extra_angle)),
        ("angle-count-and-shape",
         meta_edit(_extra_angle_and_row, named="sino_0_t1.f32")),
        ("n-items-mismatch", also_naming(meta_edit(_set(3, "n_items")),
                                         "n_items is 3, items lists 2")),
        ("dtype-float64", also_naming(meta_edit(_set("float64", "dtype")),
                                      "dtype")),
        ("endianness-big", also_naming(meta_edit(_set("BE", "endianness")),
                                       "endianness")),
        ("index-mismatch", also_naming(
            meta_edit(_set(3, "items", 0, "index")), "items[0].index")),
    ],
    "checkpoint": COMMON + [
        ("missing-tensors", meta_edit(_delete("tensors"))),
        ("missing-offset", meta_edit(_first_tensor(_delete("offset")))),
        ("missing-optimizer-eps",
         meta_edit(_delete("extra", "optimizer", "eps"))),
        ("tensors-a-list", meta_edit(_set(["head.w"], "tensors"))),
        ("shape-a-string", meta_edit(_first_tensor(_set("abc", "shape")))),
        ("offset-a-string", meta_edit(_first_tensor(_set("0", "offset")))),
        ("step-a-string", meta_edit(_set("x", "extra", "optimizer",
                                         "step"))),
        ("shape-mismatch", meta_edit(_first_tensor(_grow_first_axis))),
        ("payload-a-directory", as_directory("weights.f32")),
        ("truncated", blob(truncate, max)),
        ("overlong", payload("weights.f32", extend)),
        ("nan", blob(first_to(np.nan), min)),
        ("inf", blob(last_to(np.inf), max)),
    ],
    "result": COMMON + [
        ("missing-n-frames", meta_edit(_delete("n_frames"))),
        ("n-frames-null", meta_edit(_set(None, "n_frames"))),
        ("image-size-a-word", meta_edit(_set("sixteen", "image_size"))),
        ("frame-count", meta_edit(_set(5, "n_frames"), named="recon.f32")),
        ("payload-a-directory", as_directory("recon.f32")),
        ("truncated", payload("recon.f32", truncate)),
        ("overlong", payload("priors.f32", extend)),
        ("nan", payload("refined.f32", first_to(np.nan))),
        ("inf", payload("initial.f32", last_to(np.inf))),
    ] + METRIC_CASES,
}

CASES = [pytest.param(fmt, mutate, id=f"{fmt}-{name}")
         for fmt, cases in CORPUS.items() for name, mutate in cases]


def broken(good, tmp_path, fmt, mutate):
    """A copy of the good artifact with mutate applied, and the strings
    the error must carry."""
    path = tmp_path / fmt
    shutil.copytree(good / fmt, path)
    return path, mutate(path)


@pytest.mark.parametrize("fmt, mutate", CASES)
def test_bad_artifact_raises_naming_the_file(good, tmp_path, fmt, mutate):
    path, names = broken(good, tmp_path, fmt, mutate)
    with pytest.raises(DatasetFormatError) as err:
        LOADERS[fmt](path)
    for name in names:
        assert name in str(err.value)


def cli_argv(fmt, path, good, out):
    """A command that reads the artifact at path of format fmt first."""
    if fmt == "dataset":
        return ["train-refine", "--data", path, "--out", out]
    if fmt == "sinogram":
        return ["reconstruct", "--input", path, "--refine",
                good / "checkpoint", "--predict", good / "checkpoint",
                "--out", out]
    if fmt == "checkpoint":
        return ["reconstruct", "--input", good / "dataset", "--refine", path,
                "--predict", good / "checkpoint", "--out", out]
    return ["evaluate", "--results", path, "--data", good / "dataset",
            "--out", out / "metrics.csv"]


@pytest.mark.parametrize("fmt, mutate", CASES)
def test_bad_artifact_exits_3(good, tmp_path, capsys, fmt, mutate):
    path, names = broken(good, tmp_path, fmt, mutate)
    argv = cli_argv(fmt, path, good, tmp_path / "out")
    assert main([str(a) for a in argv]) == 3
    payload_ = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload_["error"] == "format-mismatch"
    for name in names:
        assert name in payload_["message"]


@pytest.mark.parametrize("mutate", [m for _, m in METRIC_CASES],
                         ids=[name for name, _ in METRIC_CASES])
def test_bad_metric_rows_plot_exits_3_writing_nothing(good, tmp_path, capsys,
                                                      mutate):
    path, names = broken(good, tmp_path, "result", mutate)
    out = tmp_path / "plot"
    assert main(["plot", "--results", str(path), "--out", str(out)]) == 3
    payload_ = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload_["error"] == "format-mismatch"
    for name in names:
        assert name in payload_["message"]
    assert not out.exists()


@pytest.mark.parametrize("fmt", FORMATS)
def test_missing_files_are_missing_artifacts(good, tmp_path, fmt):
    with pytest.raises(MissingArtifactError):
        LOADERS[fmt](tmp_path / "absent")
    path = tmp_path / fmt
    shutil.copytree(good / fmt, path)
    victim = sorted(p for p in os.listdir(path) if p.endswith(".f32"))[-1]
    os.remove(path / victim)
    with pytest.raises(MissingArtifactError, match=re.escape(victim)):
        LOADERS[fmt](path)
    os.remove(path / "meta.json")
    with pytest.raises(MissingArtifactError, match="meta.json"):
        LOADERS[fmt](path)


@pytest.mark.parametrize("fmt", ["dataset", "sinogram"])
def test_n_items_may_be_omitted(good, tmp_path, fmt):
    """n_items is checked where meta.json states it; a set written
    elsewhere without it still loads all its items."""
    path, _ = broken(good, tmp_path, fmt, meta_edit(_delete("n_items")))
    loaded = LOADERS[fmt](path)
    assert len(loaded if fmt == "dataset" else loaded[0]) == 2


def _delete_stated_layout(meta):
    del meta["dtype"], meta["endianness"]
    for item in meta["items"]:
        del item["index"]


@pytest.mark.parametrize("fmt", ["dataset", "sinogram"])
def test_dtype_endianness_and_index_may_be_omitted(good, tmp_path, fmt):
    path, _ = broken(good, tmp_path, fmt, meta_edit(_delete_stated_layout))
    loaded = LOADERS[fmt](path)
    assert len(loaded if fmt == "dataset" else loaded[0]) == 2


def test_empty_sinogram_set_is_refused(tmp_path):
    with pytest.raises(ValueError, match="at least one sinogram"):
        write_sinogram_set([], 16, tmp_path / "scans")
    assert not (tmp_path / "scans").exists()


# ------------------------------------------------ meta.json leaf sweep

def _leaf_keys(node, keys=()):
    """Key path of every scalar in a JSON tree."""
    if isinstance(node, (dict, list)):
        for key, sub in (node.items() if isinstance(node, dict)
                         else enumerate(node)):
            yield from _leaf_keys(sub, keys + (key,))
    else:
        yield keys


def _cli_load(fmt, path):
    """Load the artifact with the loader the CLI uses for it."""
    if fmt in ("dataset", "sinogram"):
        cli._load_measurements(str(path))
    elif fmt == "checkpoint":
        cli._load_model(str(path), "refine")
    else:
        load_result(path)


def _numeric_csv(path):
    """Whether every cell of a _psnr.csv is a number; step 0 has no
    prior, so its prior cells are empty."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, cell in row.items():
            if cell == "" and key.endswith("_prior") and row["step"] == "0":
                continue
            try:
                if math.isnan(float(cell)):
                    return False
            except ValueError:
                return False
    return True


@pytest.mark.parametrize("mutation", ["delete", "null", "word"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_meta_leaf_sweep(good, tmp_path, capsys, fmt, mutation):
    """Each meta.json leaf of the good artifact deleted, set to null or
    set to "x": the CLI's loader loads it or raises an error the CLI
    exits 3 on (DatasetFormatError, or MissingArtifactError for a payload
    file name that names no file), and plot on a result exits 3, or
    exits 0 with numeric cells."""
    path = tmp_path / fmt
    shutil.copytree(good / fmt, path)
    meta = json.loads((path / "meta.json").read_text())
    out = tmp_path / "plot"
    wrong = []
    for keys in _leaf_keys(meta):
        edited = copy.deepcopy(meta)
        parent = functools.reduce(operator.getitem, keys[:-1], edited)
        if mutation == "delete":
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = None if mutation == "null" else "x"
        (path / "meta.json").write_text(json.dumps(edited))
        try:
            _cli_load(fmt, path)
        except (DatasetFormatError, MissingArtifactError):
            pass
        except Exception as exc:
            wrong.append((keys, f"load: {type(exc).__name__}: {exc}"))
        if fmt != "result":
            continue
        try:
            code = main(["plot", "--results", str(path), "--out", str(out)])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code == 0 and not _numeric_csv(out / "item_000_psnr.csv"):
            code = "exit 0 with a non-numeric cell"
        if code not in (0, 3):
            wrong.append((keys, f"plot: {code}"))
        shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    assert wrong == []


# --------------------------------------------------------- one module

SRC = Path(tcrtomo.__file__).parent
LAYOUT_CALLS = re.compile(r"np\.fromfile|\.tofile\(|json\.load\(|json\.dump\(")


def test_only_artifacts_reads_and_writes_the_layout():
    """meta.json and float32 payloads go through artifacts.py only;
    config.py reads and writes JSON config files."""
    users = {p.name for p in SRC.glob("*.py")
             if LAYOUT_CALLS.search(p.read_text())}
    assert users <= {"artifacts.py", "config.py"}
    assert "artifacts.py" in users


def test_no_private_imports_from_the_artifact_modules():
    private = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module in (
                    "datasets", "artifacts", "checkpoint", "pipeline")):
                private += [(path.name, a.name) for a in node.names
                            if a.name.startswith("_")]
    assert private == []
