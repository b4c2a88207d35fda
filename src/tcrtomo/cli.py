"""Command-line surface: data generation, training, reconstruction, reports.

Subcommands
-----------
gen-data       synthesize phantom datasets (train/val/test splits)
train-refine   train the two-frame refinement model
train-predict  train the next-frame prediction model
train-uar      train the adversarial unrolled baseline
reconstruct    run the sequential reconstruction over a dataset or scan set
evaluate       aggregate PSNR/SSIM over results into a summary CSV
plot           render frame grids (PGM/PNG) and a per-step PSNR CSV

Every command resolves one JSON config (defaults < preset < file < flags),
takes a single seed, and writes artifacts that are a pure function of
those inputs, so any run can be reproduced from its command line.

Exit codes: 0 success; 2 config/schema violation (stderr carries a
one-line JSON payload with a JSON-pointer path); 3 missing or malformed
artifact, or an output path that cannot be written; 4 numerical failure
with step context.

The numeric stack is imported lazily: `TCR_THREADS` caps the BLAS/OpenMP
worker threads and `--deterministic` forces a single thread, and both
must be in the environment before numpy first loads its backend.
"""

import argparse
import csv
import json
import os
import re
import struct
import sys
import zlib

__all__ = ["main", "write_pgm"]

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_thread_env(argv):
    """Pin thread-count env vars before the numeric stack is imported.

    --deterministic overrides any ambient setting; TCR_THREADS only fills
    in variables the caller left unset.
    """
    if "--deterministic" in argv:
        for var in _THREAD_VARS:
            os.environ[var] = "1"
        return
    cap = os.environ.get("TCR_THREADS")
    if cap:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, cap)


# ------------------------------------------------------------- helpers

def _resolve_config(args, extra=None):
    from .config import load_config, merge_config
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if extra:
        overrides = merge_config(overrides, extra)
    return load_config(path=args.config, preset=args.preset,
                       overrides=overrides or None)


def _load_model(path, expect_kind):
    """Checkpoint -> (params, SttConfig), validating the stored metadata."""
    from .artifacts import entries
    from .checkpoint import load_checkpoint
    from .errors import DatasetFormatError
    from .stt import SttConfig
    params, extra, _ = load_checkpoint(path, requires_grad=False)
    if extra.get("kind", expect_kind) != expect_kind:
        raise DatasetFormatError(
            f"checkpoint {path} holds a {extra['kind']!r} model, expected "
            f"{expect_kind!r}")
    with entries(path):
        return params, SttConfig.from_dict(extra["model"])


def _load_measurements(path):
    """Dataset or sinogram-set directory -> (sinograms, gt or None, size).

    The size must also meet ReconConfig's bound, there must be an item,
    and every item must cover the two initial steps; each failure is a bad
    entry of path/meta.json, not of the user's recon config, found before
    any item is solved.
    """
    from .artifacts import DATASET, SINOGRAM, entries, read_meta
    from .datasets import load_external_sinogram, read_dataset
    from .errors import DatasetFormatError
    from .pipeline import ReconConfig
    from .spec import check_value, field_named
    meta = read_meta(path, DATASET, SINOGRAM)
    if meta["format"] == DATASET:
        ds = read_dataset(path, meta)
        sinos, gts, size = ds.sinograms, ds.gt, ds.geometry.image_size
        key = "/geometry/image_size"
    else:
        sinos, size = load_external_sinogram(path, meta)
        gts, key = None, "/image_size"
    with entries(path):
        check_value(field_named(ReconConfig, "image_size"), size, key)
    if not sinos:
        raise DatasetFormatError(
            f"{os.path.join(path, 'meta.json')}: no items, nothing to "
            f"reconstruct")
    for i, sino in enumerate(sinos):
        if sino.n_steps < 2:
            raise DatasetFormatError(
                f"{os.path.join(path, 'meta.json')}: item {i} has "
                f"{sino.n_steps} time step(s), reconstruction needs at "
                f"least 2")
    return sinos, gts, size


def _result_items(path):
    """Sorted (index, dir) of item_NNN children, or path at its extra.item."""
    from .artifacts import RESULT, entries, read_meta
    from .errors import MissingArtifactError
    if not os.path.isdir(path):
        raise MissingArtifactError(f"results directory not found: {path}")
    items = []
    for name in sorted(os.listdir(path)):
        m = re.fullmatch(r"item_(\d+)", name)
        child = os.path.join(path, name)
        if m and os.path.exists(os.path.join(child, "meta.json")):
            items.append((int(m.group(1)), child))
    if items:
        return items
    if os.path.exists(os.path.join(path, "meta.json")):
        with entries(path):
            return [(int(read_meta(path, RESULT).get("extra", {})
                         .get("item", 0)), path)]
    raise MissingArtifactError(f"no reconstruction results under {path}")


def _result_and_truth(idx, path, ds, data):
    """load_result(path), and result item idx's ground truth in dataset ds
    read from data (None without ds); missing or misshapen is exit 3."""
    from .errors import DatasetFormatError
    from .pipeline import load_result
    result, _ = load_result(path)
    if ds is None:
        return result, None
    shape = result.reconstructions.shape
    if idx >= len(ds.gt) or ds.gt[idx].shape != shape:
        found = (f"ground truth {ds.gt[idx].shape}" if idx < len(ds.gt)
                 else "no ground truth")
        raise DatasetFormatError(
            f"result item {idx} ({path}, frames {shape}) has {found} in "
            f"{data}, a dataset of {len(ds.gt)} items")
    return result, ds.gt[idx]


def _gray8(image):
    """write_pgm's pixels: uint8, [0,1] mapped linearly to 0..255, clipped."""
    import numpy as np
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image writers need a 2-D image, got shape {img.shape}")
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(path, image):
    """Write a 2-D image as binary PGM (P5), linearly mapping [0,1] to 0..255.

    Values outside [0,1] are clipped; rows are stored top to bottom.
    """
    pix = _gray8(image)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def _write_png(path, image):
    """Write a 2-D image as 8-bit grayscale PNG with write_pgm's pixels."""
    pix = _gray8(image)
    h, w = pix.shape
    rows = b"".join(b"\0" + row.tobytes() for row in pix)  # filter type 0
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        for tag, data in ((b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)),
                          (b"IDAT", zlib.compress(rows, 9)), (b"IEND", b"")):
            fh.write(struct.pack(">I", len(data)) + tag + data
                     + struct.pack(">I", zlib.crc32(tag + data)))


def _frame_grid(gt, result, pad=1):
    """Montage with reference / prediction / reconstruction rows.

    The prediction row starts at step 1 (step 0 has no prior); its first
    cell stays blank. Separators are 1 px of white.
    """
    import numpy as np
    recon = result.reconstructions
    n_frames, h, w = recon.shape
    rows = []
    if gt is not None:
        rows.append([gt[t] for t in range(n_frames)])
    rows.append([np.zeros((h, w))]
                + [result.predictions[t - 1] for t in range(1, n_frames)])
    rows.append([recon[t] for t in range(n_frames)])
    n_rows = len(rows)
    canvas = np.ones((n_rows * h + (n_rows - 1) * pad,
                      n_frames * w + (n_frames - 1) * pad))
    for r, row in enumerate(rows):
        for c, img in enumerate(row):
            y, x = r * (h + pad), c * (w + pad)
            canvas[y:y + h, x:x + w] = np.clip(img, 0.0, 1.0)
    return canvas


# ------------------------------------------------------------ commands

_SPLIT_ORDER = ("train", "val", "test")


def cmd_gen_data(args):
    from .config import geometry_from
    from .datasets import write_dataset
    from .errors import ConfigError
    from .phantoms import generate_dataset
    cfg = _resolve_config(args)
    wanted = [s.strip() for s in args.splits.split(",") if s.strip()]
    if not wanted:
        raise ConfigError("/splits", f"names no split, have {_SPLIT_ORDER}")
    for split in wanted:
        if split not in _SPLIT_ORDER:
            raise ConfigError("/splits",
                              f"unknown split {split!r}, have {_SPLIT_ORDER}")
    geom = geometry_from(cfg)
    seed = cfg["seed"]
    counts = {split: cfg["phantom"]["n_" + split] for split in _SPLIT_ORDER}
    for offset, split in enumerate(_SPLIT_ORDER):
        if split not in wanted or counts[split] == 0:
            continue
        # disjoint per-split seeds, stable under re-runs of any subset
        ds = generate_dataset(geom, counts[split], seed=seed * 3 + offset,
                              noise_level=cfg["phantom"]["noise_level"],
                              split=split)
        out = os.path.join(args.out, split)
        write_dataset(ds, out)
        print(f"wrote {counts[split]} sequences to {out}")
    return 0


def _trainer_inputs(args, cfg, name):
    """(SttConfig, TrainConfig, dataset, val dataset or None) of trainer
    section `name`.  The configs are built from the stored geometry
    before any payload is read, and their errors carry the section's path."""
    from .artifacts import DATASET, entries, read_meta
    from .config import stt_config_from, train_config_from
    from .datasets import read_dataset
    from .geometry import ScanGeometry
    from .spec import under
    meta = read_meta(args.data, DATASET)
    with entries(args.data):
        geometry = ScanGeometry.from_dict(meta["geometry"])
    section = cfg[name]
    with under("/" + name):
        model_cfg = stt_config_from(section, geometry.image_size)
        tcfg = train_config_from(section, cfg["seed"], out_dir=args.out,
                                 log_path=os.path.join(args.out, "log.csv"))
    ds = read_dataset(args.data, meta)
    return model_cfg, tcfg, ds, read_dataset(args.val) if args.val else None


def cmd_train_refine(args):
    from .training import train_refinement
    cfg = _resolve_config(args)
    model_cfg, tcfg, ds, val = _trainer_inputs(args, cfg, "train_refine")
    _, log = train_refinement(ds, tcfg, model_cfg, val_dataset=val)
    final = [r for r in log if r["split"] == "train"][-1]
    print(f"refinement model: {tcfg.epochs} epochs, final train loss "
          f"{final['loss']:.6g}, checkpoint {os.path.join(args.out, 'final')}")
    return 0


def cmd_train_predict(args):
    from .training import train_prediction
    cfg = _resolve_config(args)
    model_cfg, tcfg, ds, val = _trainer_inputs(args, cfg, "train_predict")
    re_params, re_cfg = _load_model(args.refine, "refine")
    _, log = train_prediction(ds, re_params, re_cfg, tcfg, model_cfg,
                              val_dataset=val)
    final = [r for r in log if r["split"] == "train"][-1]
    print(f"prediction model: {tcfg.epochs} epochs, final train loss "
          f"{final['loss']:.6g}, checkpoint {os.path.join(args.out, 'final')}")
    return 0


def cmd_train_uar(args):
    from .config import uar_configs_from
    from .datasets import read_dataset
    from .uar import train_uar
    cfg = _resolve_config(args)
    mode, model_cfg, tcfg = uar_configs_from(
        cfg["train_uar"], cfg["seed"], out_dir=args.out,
        log_path=os.path.join(args.out, "log.csv"))
    _, log = train_uar(read_dataset(args.data), mode, cfg=tcfg,
                       model_cfg=model_cfg)
    print(f"adversarial baseline ({mode}): {len(log)} epochs, final loss "
          f"{log[-1]['loss']:.6g}, checkpoint {os.path.join(args.out, 'final')}")
    return 0


def cmd_reconstruct(args):
    from .config import recon_config_from
    from .pipeline import evaluate, save_result, tcr_reconstruct
    if args.items is not None and args.items < 1:
        raise ValueError(f"--items must be >= 1, got {args.items}")
    # each flag overrides recon.<same name>
    recon_over = {key: getattr(args, key)
                  for key in ("solver", "alpha_init", "alpha_rest",
                              "beta_init", "beta_rest", "init_mode")
                  if getattr(args, key) is not None}
    cfg = _resolve_config(args, {"recon": recon_over} if recon_over else None)
    sinos, gts, image_size = _load_measurements(args.input)
    refine_model = _load_model(args.refine, "refine")
    predict_model = _load_model(args.predict, "predict")
    rcfg = recon_config_from(cfg["recon"], image_size)
    n = len(sinos) if args.items is None else min(args.items, len(sinos))
    os.makedirs(args.out, exist_ok=True)
    for i in range(n):
        result = tcr_reconstruct(sinos[i], rcfg, refine_model, predict_model)
        line = f"item {i}: {len(sinos[i].frames)} frames reconstructed"
        if gts is not None:  # scored as saved: float32 frames
            result.reconstructions = result.reconstructions.astype("float32")
            result.metrics = evaluate(
                result, gts[i], data_range=cfg["eval"]["data_range"])["frames"]
            line += f", last-frame psnr {result.metrics[-1]['psnr']:.2f}"
        save_result(os.path.join(args.out, f"item_{i:03d}"), result,
                    extra={"item": i, "solver": rcfg.solver,
                           "alpha_init": rcfg.alpha_init,
                           "alpha_rest": rcfg.alpha_rest})
        print(line)
    return 0


_EVAL_ROWS = (
    ("reconstruction", "all_frames", "psnr", "recon_psnr"),
    ("reconstruction", "all_frames", "ssim", "recon_ssim"),
    ("reconstruction", "last_frame", "psnr", "last_psnr"),
    ("reconstruction", "last_frame", "ssim", "last_ssim"),
    ("prior", "all_frames", "psnr", "prior_psnr"),
    ("prior", "all_frames", "ssim", "prior_ssim"),
)


def cmd_evaluate(args):
    from .datasets import read_dataset
    from .pipeline import aggregate_metrics, evaluate
    cfg = _resolve_config(args)
    ds = read_dataset(args.data)
    tables = []
    for idx, path in _result_items(args.results):
        result, gt = _result_and_truth(idx, path, ds, args.data)
        tables.append(evaluate(result, gt,
                               data_range=cfg["eval"]["data_range"]))
    agg = aggregate_metrics(tables)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "scope", "metric", "mean", "std"])
        for subject, scope, metric, stem in _EVAL_ROWS:
            writer.writerow([subject, scope, metric,
                             str(agg[f"{stem}_mean"]), str(agg[f"{stem}_std"])])
    print(f"{len(tables)} items: recon psnr {agg['recon_psnr_mean']:.4g}, "
          f"ssim {agg['recon_ssim_mean']:.4g}; last-frame psnr "
          f"{agg['last_psnr_mean']:.4g}; table {args.out}")
    return 0


def cmd_plot(args):
    from .datasets import read_dataset
    from .errors import MissingArtifactError
    from .pipeline import evaluate
    cfg = _resolve_config(args)
    items = dict(_result_items(args.results))
    idx = min(items) if args.item is None else args.item
    if idx not in items:
        raise MissingArtifactError(
            f"no result item {idx} under {args.results}")
    ds = read_dataset(args.data) if args.data else None
    result, gt = _result_and_truth(idx, items[idx], ds, args.data)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"item_{idx:03d}")
    write_pgm(stem + ".pgm", _frame_grid(gt, result))
    wrote = [stem + ".pgm"]
    if args.png:
        _write_png(stem + ".png", _frame_grid(gt, result))
        wrote.append(stem + ".png")

    frames = result.metrics if gt is None else evaluate(
        result, gt, data_range=cfg["eval"]["data_range"])["frames"]
    if frames:
        csv_path = stem + "_psnr.csv"
        cols = ("step", "psnr", "ssim", "psnr_prior", "ssim_prior")
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, cols, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(frames)
        wrote.append(csv_path)
    print("wrote " + ", ".join(wrote))
    return 0


# -------------------------------------------------------------- parser

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON experiment config")
    common.add_argument("--preset", choices=("desk", "paper"),
                        help="baseline config the file/flags override")
    common.add_argument("--seed", type=int, help="overrides the config seed")
    common.add_argument("--deterministic", action="store_true",
                        help="force single-threaded numerics")

    parser = argparse.ArgumentParser(
        prog="tcrtomo",
        description="Dynamic tomography with learned sequential priors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[common],
                       help="synthesize phantom datasets")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--splits", default="train,val,test",
                   help="comma-separated subset of train,val,test")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-refine", parents=[common],
                       help="train the two-frame refinement model")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--val", metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_train_refine)

    p = sub.add_parser("train-predict", parents=[common],
                       help="train the next-frame prediction model")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--val", metavar="DIR")
    p.add_argument("--refine", required=True, metavar="CKPT",
                   help="refinement checkpoint directory")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_train_predict)

    p = sub.add_parser("train-uar", parents=[common],
                       help="train the adversarial unrolled baseline")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_train_uar)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="sequential reconstruction of measured sequences")
    p.add_argument("--input", required=True, metavar="DIR",
                   help="dataset or sinogram-set directory")
    p.add_argument("--refine", required=True, metavar="CKPT")
    p.add_argument("--predict", required=True, metavar="CKPT")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--items", type=int, metavar="N",
                   help="reconstruct only the first N items")
    p.add_argument("--solver", help="overrides recon.solver (l2, l1, l1tv)")
    p.add_argument("--alpha-init", type=float, dest="alpha_init")
    p.add_argument("--alpha-rest", type=float, dest="alpha_rest")
    p.add_argument("--beta-init", type=float, dest="beta_init")
    p.add_argument("--beta-rest", type=float, dest="beta_rest")
    p.add_argument("--init-mode", dest="init_mode",
                   help="overrides recon.init_mode")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", parents=[common],
                       help="summarize PSNR/SSIM over reconstruction results")
    p.add_argument("--results", required=True, metavar="DIR")
    p.add_argument("--data", required=True, metavar="DIR",
                   help="dataset directory providing ground truth")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", parents=[common],
                       help="render frame grids and a per-step PSNR table")
    p.add_argument("--results", required=True, metavar="DIR")
    p.add_argument("--data", metavar="DIR",
                   help="dataset directory for the reference row")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--item", type=int, metavar="N",
                   help="result item to render (default: first)")
    p.add_argument("--png", action="store_true",
                   help="also write a PNG")
    p.set_defaults(func=cmd_plot)
    return parser


def _fail(code, payload):
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    _apply_thread_env(argv)
    args = _build_parser().parse_args(argv)
    from .errors import ConfigError, DatasetFormatError, NumericalError
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, {"error": "schema-violation", "path": exc.path,
                         "message": str(exc)})
    except DatasetFormatError as exc:
        return _fail(3, {"error": "format-mismatch", "message": str(exc)})
    except FileNotFoundError as exc:  # MissingArtifactError among them
        return _fail(3, {"error": "missing-artifact", "message": str(exc)})
    except OSError as exc:  # e.g. an output path that cannot be created
        return _fail(3, {"error": "io-error", "message": str(exc)})
    except NumericalError as exc:
        return _fail(4, {"error": "numerical-failure", "message": str(exc)})
    except ValueError as exc:
        return _fail(2, {"error": "invalid-value", "message": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
