"""Dataset containers and their on-disk layout.

A dataset directory (artifacts.DATASET) holds one meta.json plus one
float32 payload per tensor, as every artifact does:

    meta.json            geometry, counts, seeds, per-item file names
    gt_<i>.f32           ground-truth frames, T*H*W values, C order
    sino_<i>_t<t>.f32    measured sinogram of item i at step t, n_a(t)*n_off

A sinogram set (artifacts.SINOGRAM) holds the same sinogram entries
without ground truth: it is how externally acquired scans enter the
pipeline.
"""

import os

import numpy as np

from .artifacts import DATASET, SINOGRAM, entries, read_f32, read_meta
from .artifacts import write_f32, write_meta
from .errors import DatasetFormatError
from .geometry import ScanGeometry
from .spec import check_value, field_named

# a sinogram set's image_size takes ScanGeometry's bound
_IMAGE_SIZE = field_named(ScanGeometry, "image_size")


class Sinogram:
    """Per-step measurement stack: frames[t] is (n_angles(t), n_offsets)."""

    def __init__(self, frames, angles, offsets):
        if len(frames) != len(angles):
            raise ValueError(
                f"{len(frames)} sinogram frames vs {len(angles)} angle lists")
        self.frames = [np.asarray(f, dtype=np.float64) for f in frames]
        self.angles = [np.asarray(a, dtype=np.float64) for a in angles]
        self.offsets = np.asarray(offsets, dtype=np.float64)
        # a NaN angle or offset would silently drop its rays from the
        # projector; an infinite one, or no angle, would fail the solve
        if not np.isfinite(self.offsets).all():
            raise ValueError("offsets: non-finite values")
        for t, (f, a) in enumerate(zip(self.frames, self.angles)):
            if (a.ndim, self.offsets.ndim, f.shape) != (
                    1, 1, (a.size, self.offsets.size)):
                raise ValueError(f"step {t}: frame shape {f.shape} does not "
                                 f"match angles {a.shape}, offsets "
                                 f"{self.offsets.shape}")
            if a.size == 0 or not np.isfinite(a).all():
                raise ValueError(f"step {t}: angles must be a non-empty list "
                                 f"of finite values, got {a.tolist()}")

    @property
    def n_steps(self):
        return len(self.frames)


class Dataset:
    """In-memory dataset: ground-truth sequences paired with sinograms."""

    def __init__(self, geometry, gt, sinograms, seed=0, split="train",
                 noise_level=0.0, specs=None):
        if len(gt) != len(sinograms):
            raise ValueError(
                f"{len(gt)} gt sequences vs {len(sinograms)} sinograms")
        self.geometry = geometry
        self.gt = [np.asarray(g, dtype=np.float32) for g in gt]
        self.sinograms = list(sinograms)
        self.seed = seed
        self.split = split
        self.noise_level = noise_level
        self.specs = specs

    def __len__(self):
        return len(self.gt)


def _write_sinos(path, i, sino):
    """Write item i's sinogram payloads; return their meta.json entries."""
    out = []
    for t, (frame, ang) in enumerate(zip(sino.frames, sino.angles)):
        fname = f"sino_{i}_t{t}.f32"
        write_f32(os.path.join(path, fname), frame)
        out.append({"file": fname, "shape": list(frame.shape),
                    "angles": [float(a) for a in ang]})
    return out


def _read_sinos(path, sino_entries, offsets):
    """Sinogram of one item; each payload is read at the shape
    (number of angles, number of offsets) that its entry gives."""
    frames, angles = [], []
    for entry in sino_entries:
        shape = [len(entry["angles"]), offsets.size]
        if entry["shape"] != shape:
            raise ValueError(f"{entry['file']}: shape {entry['shape']}, "
                             f"its angles and offsets give {shape}")
        frames.append(read_f32(os.path.join(path, entry["file"]), shape))
        angles.append(np.asarray(entry["angles"], dtype=np.float64))
    return Sinogram(frames, angles, offsets)


def write_dataset(ds, path):
    """Write a Dataset to a directory (created if needed)."""
    os.makedirs(path, exist_ok=True)
    items = []
    for i, (gt, sino) in enumerate(zip(ds.gt, ds.sinograms)):
        write_f32(os.path.join(path, f"gt_{i}.f32"), gt)
        items.append({"index": i,
                      "gt": {"file": f"gt_{i}.f32", "shape": list(gt.shape)},
                      "sino": _write_sinos(path, i, sino)})
    meta = {
        "endianness": "LE",
        "dtype": "float32",
        "geometry": ds.geometry.to_dict(),
        "n_items": len(ds.gt),
        "seed": ds.seed,
        "split": ds.split,
        "noise_level": ds.noise_level,
        "items": items,
    }
    if ds.specs is not None:
        meta["phantoms"] = ds.specs
    write_meta(path, DATASET, meta)


def _read_item(path, i, item, geom):
    """(ground truth, Sinogram) of dataset item i, whose ground truth must
    be (n_steps, image_size, image_size) of geom and whose sinogram must
    have n_steps frames."""
    frames = [geom.n_steps, geom.image_size, geom.image_size]
    gt_path = os.path.join(path, item["gt"]["file"])
    if item["gt"]["shape"] != frames:
        raise DatasetFormatError(f"{gt_path}: shape {item['gt']['shape']}, "
                                 f"the geometry gives {frames}")
    if len(item["sino"]) != geom.n_steps:
        raise DatasetFormatError(
            f"{os.path.join(path, 'meta.json')}: item {i} has "
            f"{len(item['sino'])} sinogram frames, the geometry gives "
            f"n_steps {geom.n_steps}")
    return (read_f32(gt_path, frames),
            _read_sinos(path, item["sino"], geom.offsets))


def read_dataset(path, meta=None):
    """Load a dataset directory, checking its entries and every payload.

    meta is the directory's meta.json if the caller has already read it.
    """
    if meta is None:
        meta = read_meta(path, DATASET)
    with entries(path):
        geom = ScanGeometry.from_dict(meta["geometry"])
        items = [_read_item(path, i, item, geom)
                 for i, item in enumerate(meta["items"])]
        gt = [g for g, _ in items]
        sinos = [s for _, s in items]
        return Dataset(geom, gt, sinos, seed=meta["seed"],
                       split=meta["split"], noise_level=meta["noise_level"],
                       specs=meta.get("phantoms"))


def write_sinogram_set(sinograms, image_size, path):
    """Measurement-only directory: meta.json + sino_<i>_t<t>.f32 files."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "endianness": "LE",
        "dtype": "float32",
        "image_size": int(image_size),
        "offsets": [float(o) for o in sinograms[0].offsets],
        "n_items": len(sinograms),
        "items": [{"index": i, "sino": _write_sinos(path, i, sino)}
                  for i, sino in enumerate(sinograms)],
    }
    write_meta(path, SINOGRAM, meta)


def load_external_sinogram(path, meta=None):
    """Load a sinogram set directory -> (list of Sinogram, image_size).

    Angle counts may vary arbitrarily per step; geometry comes entirely from
    the metadata, so scans acquired elsewhere only need meta.json + raw f32
    payloads to be reconstructable.  meta is the directory's meta.json if
    the caller has already read it.
    """
    if meta is None:
        meta = read_meta(path, SINOGRAM)
    with entries(path):
        check_value(_IMAGE_SIZE, meta["image_size"], "/image_size")
        offsets = np.asarray(meta["offsets"], dtype=np.float64)
        sinos = [_read_sinos(path, item["sino"], offsets)
                 for item in meta["items"]]
        return sinos, meta["image_size"]
