"""The on-disk artifact layout: one meta.json plus raw float32 payloads.

An artifact is a directory: a meta.json with one of the four format tags
below, shapes and provenance, and payload files of little-endian float32
values in C order, which any language can parse and cmp can compare.
This is the only module that reads or writes either part.  A load checks
the tag, the entries it reads (through `entries`), and each payload's
size and finiteness; a failure, or a file that cannot be read, is a
DatasetFormatError naming the file, an absent file a MissingArtifactError.
"""

import contextlib
import json
import os

import numpy as np

from .errors import DatasetFormatError, MissingArtifactError

__all__ = ["DATASET", "SINOGRAM", "CHECKPOINT", "RESULT", "write_meta",
           "read_meta", "entries", "write_f32", "read_f32", "check_f32"]

DATASET = "tcr-dataset-v1"
SINOGRAM = "tcr-sinogram-v1"
CHECKPOINT = "tcr-checkpoint-v1"
RESULT = "tcr-result-v1"


def write_meta(path, fmt, meta):
    """Write path/meta.json tagged fmt; sorted keys keep reruns byte identical."""
    with open(os.path.join(path, "meta.json"), "w", encoding="ascii") as fh:
        json.dump(dict(meta, format=fmt), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_meta(path, *formats):
    """path/meta.json as a dict whose format tag is one of formats."""
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path, "rb") as fh:
            meta = json.loads(fh.read())
    except FileNotFoundError:
        raise MissingArtifactError(f"missing meta.json: {meta_path}") from None
    except OSError as exc:  # a directory in its place, or unreadable
        raise DatasetFormatError(
            f"{meta_path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DatasetFormatError(f"{meta_path}: not JSON: {exc}") from None
    fmt = meta.get("format") if isinstance(meta, dict) else None
    if fmt not in formats:
        raise DatasetFormatError(
            f"{meta_path}: format {fmt!r}, expected "
            + " or ".join(repr(f) for f in formats))
    return meta


@contextlib.contextmanager
def entries(path):
    """Turn a missing or mistyped meta.json entry used inside the block
    into a DatasetFormatError naming path/meta.json."""
    try:
        yield
    except DatasetFormatError:
        raise
    except (KeyError, TypeError, IndexError, ValueError,
            AttributeError) as exc:
        raise DatasetFormatError(
            f"{os.path.join(path, 'meta.json')}: bad entry, "
            f"{type(exc).__name__}: {exc}") from None


def write_f32(path, *arrays):
    """Write the arrays back to back as one little-endian float32 payload."""
    with open(path, "wb") as fh:
        for arr in arrays:
            np.asarray(arr, dtype="<f4").tofile(fh)


def read_f32(path, shape=None):
    """Payload file -> float32 array of shape, its size and values checked.

    Without a shape the flat values come back unchecked, for a caller
    that checks slices of one file with check_f32.
    """
    try:
        values = np.fromfile(path, dtype="<f4")
    except FileNotFoundError:
        raise MissingArtifactError(f"missing payload: {path}") from None
    except OSError as exc:
        raise DatasetFormatError(
            f"{path}: cannot read: {exc.strerror or exc}") from None
    return values if shape is None else check_f32(values, shape, path)


def check_f32(values, shape, what):
    """values reshaped to shape, if they fill it and are all finite."""
    shape = tuple(shape)
    expected = int(np.prod(shape))
    if values.size != expected:
        raise DatasetFormatError(
            f"{what}: holds {values.size} float32 values, expected "
            f"{expected} for shape {shape}")
    if not np.isfinite(values).all():
        raise DatasetFormatError(f"{what}: non-finite payload values")
    return values.reshape(shape)
