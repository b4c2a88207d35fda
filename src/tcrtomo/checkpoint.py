"""Named-tensor checkpoints: meta.json plus a single float32 blob.

Layout on disk:

    <dir>/meta.json    {"format": "tcr-checkpoint-v1",
                        "tensors": {name: {"shape": [...], "offset": bytes}},
                        "extra": {...}}
    <dir>/weights.f32  all tensors, little-endian float32, at their offsets

Offsets are assigned in sorted-name order, so a checkpoint written twice
from the same values is byte identical. `extra` carries JSON-serializable
sidecar state (epoch counter, model kind and config).

A checkpoint holds the model's tensors only. Checkpoints written by
earlier versions also carry AdamW state: moments as tensors under
opt.m/<name> and opt.v/<name>, scalars in extra["optimizer"]. They
still load; load_checkpoint returns that state apart from the model.
"""

import os

import numpy as np

from .artifacts import (CHECKPOINT, check_f32, entries, read_f32, read_meta,
                        write_f32, write_meta)
from .autodiff import Tensor
from .errors import DatasetFormatError

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, tensors, extra=None):
    """Write a checkpoint directory.

    tensors: flat dict name -> Tensor or ndarray (stored as float32).
    """
    arrays = {name: t.data if isinstance(t, Tensor) else np.asarray(t)
              for name, t in tensors.items()}
    os.makedirs(path, exist_ok=True)
    names = sorted(arrays)
    meta = {"tensors": {}, "extra": dict(extra or {})}
    offset = 0
    for name in names:
        meta["tensors"][name] = {"shape": list(arrays[name].shape),
                                 "offset": offset}
        offset += 4 * arrays[name].size
    write_f32(os.path.join(path, "weights.f32"),
              *(arrays[name] for name in names))
    write_meta(path, CHECKPOINT, meta)


def load_checkpoint(path, requires_grad=True):
    """Read a checkpoint directory.

    Returns (tensors, extra, optimizer) where tensors maps name -> Tensor,
    extra is the stored sidecar dict, and optimizer is the AdamW state
    of an older checkpoint that carries one, else None.  The tensors must
    tile the one blob in sorted-name order; the model's are views of it,
    or copies if it holds moments, so dropping those frees the blob.
    """
    meta = read_meta(path, CHECKPOINT)
    blob_path = os.path.join(path, "weights.f32")
    blob = read_f32(blob_path)
    tensors, moments = {}, {"m": {}, "v": {}}
    start = 0
    with entries(path):
        own = np.copy if any(name[:6] in ("opt.m/", "opt.v/")
                             for name in meta["tensors"]) else np.asarray
        for name in sorted(meta["tensors"]):
            entry = meta["tensors"][name]
            if entry["offset"] != 4 * start:
                raise ValueError(f"tensor {name!r} at byte offset "
                                 f"{entry['offset']}, expected {4 * start}")
            n = int(np.prod(entry["shape"]))
            arr = check_f32(blob[start:start + n], entry["shape"],
                            f"{blob_path} tensor {name!r}")
            start += n
            if name[:6] in ("opt.m/", "opt.v/"):
                moments[name[4]][name[6:]] = arr
            else:
                tensors[name] = Tensor(own(arr), requires_grad=requires_grad)
        if start != blob.size:
            raise DatasetFormatError(f"{blob_path}: holds {blob.size} float32 "
                                     f"values, its tensors fill {start}")
        extra = dict(meta.get("extra", {}))
        opt = extra.pop("optimizer", None)
        optimizer = None if opt is None else {
            "betas": tuple(opt["betas"]), "eps": float(opt["eps"]),
            "weight_decay": float(opt["weight_decay"]),
            "step": int(opt["step"]), **moments}
    return tensors, extra, optimizer
