"""Experiment configuration: defaults, presets, schema validation.

A configuration is one JSON object with sections geometry, phantom,
train_refine, train_predict, train_uar, recon, eval plus a top-level
seed.  Every field is optional; defaults and bounds come from the
dataclass fields each section exposes.  Unknown keys are rejected with
a JSON-pointer path so typos fail loudly instead of silently running a
default.

Two presets ship: "desk" (32x32, 8 steps, 200 phantoms, 30 epochs;
finishes on a laptop CPU) and "paper" (64x64, 10 steps, 5000 phantoms,
model dim 512; the full-scale protocol, offered as a config rather than
a default).
"""

import copy
import json
from dataclasses import dataclass, fields

from .errors import ConfigError, MissingArtifactError
from .geometry import ScanGeometry
from .pipeline import ReconConfig
from .spec import check_value, field_named, fields_from_dict, spec, under
from .stt import SttConfig
from .training import TrainConfig, prediction_train_config
from .uar import MODES, UarConfig, UarTrainConfig

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "default_config",
    "preset_overrides",
    "validate_config",
    "merge_config",
    "load_config",
    "geometry_from",
    "stt_config_from",
    "train_config_from",
    "recon_config_from",
    "uar_configs_from",
]

PRESETS = {
    "desk": {
        "geometry": {"image_size": 32, "n_steps": 8, "n_offsets": 47},
        "phantom": {"n_train": 200, "n_val": 8, "n_test": 20},
        "train_refine": {"epochs": 30},
        "train_predict": {"epochs": 30},
    },
    "paper": {
        "geometry": {"image_size": 64, "n_steps": 10, "n_offsets": 100},
        "phantom": {"n_train": 5000, "n_val": 100, "n_test": 100},
        "train_refine": {
            "epochs": 100,
            "model": {"model_dim": 512, "heads": 8, "layers": 6},
        },
        "train_predict": {
            "epochs": 100,
            "model": {"model_dim": 512, "heads": 8, "layers": 6},
        },
    },
}


@dataclass(frozen=True)
class _Unowned:
    """Entries that no module dataclass holds."""

    seed: int = spec(0, minimum=0)
    n_train: int = spec(200, minimum=0)
    n_val: int = spec(8, minimum=0)
    n_test: int = spec(20, minimum=0)
    noise_level: float = spec(0.0, minimum=0.0)
    mode: str = spec("static2d", choices=MODES)
    data_range: float = spec(1.0, above=0.0)


# the fields each trainer's builder fixes per run
_RUN = ("seed", "out_dir", "log_path")


def _keys(owner, *fixed):
    """A key owned by owner for each of its fields but those fixed."""
    return {f.name: owner for f in fields(owner) if f.name not in fixed}


_MODEL = _keys(SttConfig, "image_size", "enc_channels")

# each key -> the dataclass (or, for train_predict, the default instance)
# whose field of that name gives the key's type, bound and default; a
# section's keys are its dataclasses' fields, less what the builders fix
_SECTIONS = {
    "seed": _Unowned,
    "geometry": _keys(ScanGeometry),
    "phantom": dict.fromkeys(("n_train", "n_val", "n_test", "noise_level"),
                             _Unowned),
    "train_refine": {**_keys(TrainConfig, *_RUN), "model": _MODEL},
    "train_predict": {**_keys(prediction_train_config(), *_RUN),
                      "model": _MODEL},
    "train_uar": {"mode": _Unowned, **_keys(UarConfig),
                  **_keys(UarTrainConfig, *_RUN)},
    "recon": _keys(ReconConfig, "image_size"),
    "eval": {"data_range": _Unowned},
}


def _derive(tree, leaf):
    return {key: _derive(v, leaf) if isinstance(v, dict) else leaf(v, key)
            for key, v in tree.items()}


def _default(owner, name):
    value = getattr(owner, name)
    return list(value) if isinstance(value, tuple) else value


SCHEMA = _derive(_SECTIONS, field_named)
DEFAULTS = _derive(_SECTIONS, _default)


def validate_config(doc, schema=None, path=""):
    """Recursively check a (possibly partial) config document.

    Raises ConfigError with a JSON-pointer path for unknown keys, type
    mismatches, and out-of-range values.
    """
    schema = schema if schema is not None else SCHEMA
    if not isinstance(doc, dict):
        raise ConfigError(path or "/", f"expected object, got {doc!r}")
    for key, value in doc.items():
        sub = f"{path}/{key}"
        if key not in schema:
            raise ConfigError(sub, "unknown key")
        target = schema[key]
        if isinstance(target, dict):
            validate_config(value, target, sub)
        else:
            check_value(target, value, sub)


def merge_config(base, override):
    """Deep merge: override wins, nested objects merge key-wise."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def default_config():
    return copy.deepcopy(DEFAULTS)


def preset_overrides(name):
    if name not in PRESETS:
        raise ConfigError("/preset",
                          f"unknown preset {name!r}, have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])


def load_config(path=None, preset=None, overrides=None):
    """Resolve the effective config: defaults < preset < file < overrides.

    Every layer is validated against the schema before merging, so error
    paths point at the layer that introduced the bad entry.
    """
    cfg = default_config()
    if preset is not None:
        cfg = merge_config(cfg, preset_overrides(preset))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise MissingArtifactError(f"config file not found: {path}")
        except OSError as exc:  # a directory, or unreadable
            raise MissingArtifactError(
                f"config file cannot be read: {path}: {exc.strerror or exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError("/", f"config file is not valid JSON: {exc}")
        validate_config(doc)
        cfg = merge_config(cfg, doc)
    if overrides:
        validate_config(overrides)
        cfg = merge_config(cfg, overrides)
    validate_config(cfg)
    return cfg


# ------------------------------------------- section -> module configs

def _build(cls, section, path, **fixed):
    """cls from a validated section's entries, fixed's values and, for a
    field neither sets (enc_channels), its default.

    A ConfigError raised while constructing gets path in front.
    """
    values = {f.name: section.get(f.name, f.default) for f in fields(cls)}
    with under(path):
        return fields_from_dict(cls, {**values, **fixed})


def geometry_from(cfg):
    return _build(ScanGeometry, cfg["geometry"], "/geometry")


def stt_config_from(section, image_size):
    """SttConfig of a trainer section; error paths start at /model."""
    return _build(SttConfig, section["model"], "/model",
                  image_size=image_size)


def train_config_from(section, seed, out_dir=None, log_path=None):
    """TrainConfig of a trainer section; error paths are section-relative."""
    return _build(TrainConfig, section, "", seed=seed, out_dir=out_dir,
                  log_path=log_path)


def recon_config_from(section, image_size):
    return _build(ReconConfig, section, "/recon", image_size=image_size)


def uar_configs_from(section, seed, out_dir=None, log_path=None):
    """(mode, UarConfig, UarTrainConfig) from the train_uar section."""
    return (section["mode"], _build(UarConfig, section, "/train_uar"),
            _build(UarTrainConfig, section, "/train_uar", seed=seed,
                   out_dir=out_dir, log_path=log_path))
