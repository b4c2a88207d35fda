"""Derived config tables against the literal tables they replaced.

DEFAULTS and SCHEMA used to be written out by hand in config.py.  They are
now derived from the dataclass fields; the literal tables are kept here
as the reference.  The derived validator must accept and reject exactly
what the literal one did, at the same JSON pointer, except for three
deliberate changes: non-finite numbers are rejected, the UAR learning
rates must be > 0 (the dataclass always required that), and so must
eval.data_range (psnr and ssim reject 0 once the results are loaded).
"""

import ast
import dataclasses
import json
import math
import pathlib

import pytest

from tcrtomo.config import (DEFAULTS, PRESETS, SCHEMA, default_config,
                            geometry_from, load_config, stt_config_from,
                            validate_config)
from tcrtomo import config
from tcrtomo.errors import ConfigError
from tcrtomo.geometry import ScanGeometry
from tcrtomo.pipeline import ReconConfig
from tcrtomo.spec import fields_from_dict
from tcrtomo.stt import SttConfig
from tcrtomo.training import TrainConfig
from tcrtomo.uar import UarConfig, UarTrainConfig

# ------------------------------------------------ reference: literal tables

LITERAL_DEFAULTS = {
    "seed": 0,
    "geometry": {
        "image_size": 64,
        "n_steps": 10,
        "n_angles_init": 20,
        "n_angles_rest": 3,
        "n_offsets": 100,
        "rotation_delta": None,
    },
    "phantom": {
        "n_train": 200,
        "n_val": 8,
        "n_test": 20,
        "noise_level": 0.0,
    },
    "train_refine": {
        "epochs": 100,
        "batch_size": 8,
        "warmup": 10,
        "hold_until": 0,
        "min_lr": 1e-6,
        "max_lr": 1e-4,
        "checkpoint_every": 0,
        "model": {"model_dim": 64, "heads": 4, "layers": 2, "window": None},
    },
    "train_predict": {
        "epochs": 100,
        "batch_size": 8,
        "warmup": 0,
        "hold_until": 40,
        "min_lr": 1e-6,
        "max_lr": 3e-5,
        "checkpoint_every": 0,
        "model": {"model_dim": 64, "heads": 4, "layers": 2, "window": None},
    },
    "train_uar": {
        "mode": "static2d",
        "unroll": 20,
        "gamma_channels": 32,
        "critic_channels": [16, 16, 32, 32, 32, 32],
        "critic_hidden": 64,
        "phase1_epochs": 5,
        "phase2_epochs": 5,
        "phase3_epochs": 10,
        "lr_warmup": 1e-5,
        "lr_adversarial": 2e-5,
        "alpha": 0.1,
        "lambda_gp": 10.0,
    },
    "recon": {
        "solver": "L1",
        "alpha_init": 0.1,
        "alpha_rest": 0.1,
        "beta_init": 0.0,
        "beta_rest": 0.0,
        "max_iter_l1": 200,
        "max_iter_pdhg": 400,
        "init_mode": "landweber",
    },
    "eval": {
        "data_range": 1.0,
    },
}


class _Field:
    """Leaf validator: type kind plus simple range/choice constraints."""

    def __init__(self, kind, minimum=None, choices=None, allow_none=False,
                 length=None):
        self.kind = kind
        self.minimum = minimum
        self.choices = choices
        self.allow_none = allow_none
        self.length = length

    def check(self, value, path):
        if value is None:
            if self.allow_none:
                return
            raise ConfigError(path, "must not be null")
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(path, f"expected integer, got {value!r}")
        elif self.kind == "num":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(path, f"expected number, got {value!r}")
        elif self.kind == "str":
            if not isinstance(value, str):
                raise ConfigError(path, f"expected string, got {value!r}")
        elif self.kind == "intlist":
            if (not isinstance(value, list)
                    or any(isinstance(v, bool) or not isinstance(v, int)
                           for v in value)):
                raise ConfigError(path, f"expected list of integers, got {value!r}")
            if self.length is not None and len(value) != self.length:
                raise ConfigError(
                    path, f"expected {self.length} entries, got {len(value)}")
            if self.minimum is not None and any(v < self.minimum for v in value):
                raise ConfigError(path, f"entries must be >= {self.minimum}")
            return
        if self.minimum is not None and self.kind in ("int", "num"):
            if value < self.minimum:
                raise ConfigError(path, f"must be >= {self.minimum}, got {value}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                path, f"must be one of {sorted(self.choices)}, got {value!r}")


def _model_schema():
    return {
        "model_dim": _Field("int", minimum=1),
        "heads": _Field("int", minimum=1),
        "layers": _Field("int", minimum=1),
        "window": _Field("int", minimum=1, allow_none=True),
    }


def _train_schema():
    return {
        "epochs": _Field("int", minimum=1),
        "batch_size": _Field("int", minimum=1),
        "warmup": _Field("int", minimum=0),
        "hold_until": _Field("int", minimum=0),
        "min_lr": _Field("num", minimum=0.0),
        "max_lr": _Field("num", minimum=0.0),
        "checkpoint_every": _Field("int", minimum=0),
        "model": _model_schema(),
    }


LITERAL_SCHEMA = {
    "seed": _Field("int", minimum=0),
    "geometry": {
        "image_size": _Field("int", minimum=2),
        "n_steps": _Field("int", minimum=2),
        "n_angles_init": _Field("int", minimum=1),
        "n_angles_rest": _Field("int", minimum=1),
        "n_offsets": _Field("int", minimum=2),
        "rotation_delta": _Field("num", allow_none=True),
    },
    "phantom": {
        "n_train": _Field("int", minimum=0),
        "n_val": _Field("int", minimum=0),
        "n_test": _Field("int", minimum=0),
        "noise_level": _Field("num", minimum=0.0),
    },
    "train_refine": _train_schema(),
    "train_predict": _train_schema(),
    "train_uar": {
        "mode": _Field("str", choices=("static2d", "dynamic3d")),
        "unroll": _Field("int", minimum=1),
        "gamma_channels": _Field("int", minimum=1),
        "critic_channels": _Field("intlist", minimum=1, length=6),
        "critic_hidden": _Field("int", minimum=1),
        "phase1_epochs": _Field("int", minimum=0),
        "phase2_epochs": _Field("int", minimum=0),
        "phase3_epochs": _Field("int", minimum=0),
        "lr_warmup": _Field("num", minimum=0.0),
        "lr_adversarial": _Field("num", minimum=0.0),
        "alpha": _Field("num", minimum=0.0),
        "lambda_gp": _Field("num", minimum=0.0),
    },
    "recon": {
        "solver": _Field("str", choices=("L2", "L1", "L1TV",
                                         "l2", "l1", "l1tv")),
        "alpha_init": _Field("num", minimum=0.0),
        "alpha_rest": _Field("num", minimum=0.0),
        "beta_init": _Field("num", minimum=0.0),
        "beta_rest": _Field("num", minimum=0.0),
        "max_iter_l1": _Field("int", minimum=1),
        "max_iter_pdhg": _Field("int", minimum=1),
        "init_mode": _Field("str", choices=("landweber", "tv")),
    },
    "eval": {
        "data_range": _Field("num", minimum=0.0),
    },
}


def literal_validate(doc, schema=LITERAL_SCHEMA, path=""):
    if not isinstance(doc, dict):
        raise ConfigError(path or "/", f"expected object, got {doc!r}")
    for key, value in doc.items():
        sub = f"{path}/{key}"
        if key not in schema:
            raise ConfigError(sub, "unknown key")
        target = schema[key]
        if isinstance(target, dict):
            literal_validate(value, target, sub)
        else:
            target.check(value, sub)


# ------------------------------------------------------------ the corpus

# >= 0 in the literal schema, > 0 in the dataclasses: the UAR learning
# rates, and the data range, which psnr and ssim require to be > 0
STRICTLY_POSITIVE = {"/train_uar/lr_warmup", "/train_uar/lr_adversarial",
                     "/eval/data_range"}


def _leaves(schema, path=""):
    for key, target in schema.items():
        sub = f"{path}/{key}"
        if isinstance(target, dict):
            yield from _leaves(target, sub)
        else:
            yield sub, target


def _candidates(f, default):
    """Values probing every check a leaf has."""
    out = [default, None, True, False, {}, "x", 7, 1.5, [], [1, 2]]
    if f.kind == "num":
        out += [0, 0.0, -0.0, 3, 1e300, 10 ** 400, math.nan, math.inf,
                -math.inf]
    if f.minimum is not None:
        low = f.minimum - (1 if f.kind in ("int", "intlist") else 0.5)
        out += [f.minimum, low]
        if f.kind == "intlist":
            out += [[f.minimum] * f.length, [low] * f.length,
                    [f.minimum] * (f.length - 1) + [low]]
    if f.length is not None:
        out += [[1] * (f.length + 1), [1] * (f.length - 1),
                [1.0] * f.length, [True] * f.length, [None] * f.length]
    if f.choices is not None:
        out += list(f.choices) + ["nope", f.choices[0].swapcase() + "x"]
    return out


def _at(path, value):
    doc = value
    for key in reversed(path.strip("/").split("/")):
        doc = {key: doc}
    return doc


def _outcome(validate, doc):
    try:
        validate(doc)
    except ConfigError as exc:
        return exc.path
    return "ok"


def _deliberate_change(path, value):
    if isinstance(value, float) and not math.isfinite(value):
        return True
    return path in STRICTLY_POSITIVE and value == 0


def _default_at(path):
    node = LITERAL_DEFAULTS
    for key in path.strip("/").split("/"):
        node = node[key]
    return node


LEAVES = dict(_leaves(LITERAL_SCHEMA))


def test_corpus_reaches_both_outcomes():
    outcomes = {_outcome(literal_validate, _at(path, value)) == "ok"
                for path, f in LEAVES.items()
                for value in _candidates(f, _default_at(path))}
    assert outcomes == {True, False}


@pytest.mark.parametrize("path", sorted(LEAVES))
def test_leaf_matches_literal_validator(path):
    mismatches = []
    for value in _candidates(LEAVES[path], _default_at(path)):
        doc = _at(path, value)
        old = _outcome(literal_validate, doc)
        new = _outcome(validate_config, doc)
        want = path if old == "ok" and _deliberate_change(path, value) else old
        if new != want:
            mismatches.append((value, old, new))
    assert mismatches == []


@pytest.mark.parametrize("doc", [
    {"bogus": 1},
    {"geometry": {"bogus": 1}},
    {"train_refine": {"model": {"bogus": 1}}},
    {"train_predict": {"model": 3}},
    {"recon": []},
    {"eval": None},
    [],
    "x",
], ids=repr)
def test_structure_matches_literal_validator(doc):
    assert _outcome(validate_config, doc) == _outcome(literal_validate, doc)
    assert _outcome(validate_config, doc) != "ok"


def test_defaults_equal_literal_table():
    assert DEFAULTS == LITERAL_DEFAULTS
    assert default_config() == LITERAL_DEFAULTS
    assert json.dumps(DEFAULTS) == json.dumps(LITERAL_DEFAULTS)


def test_presets_and_defaults_validate_under_both():
    for name in PRESETS:
        cfg = load_config(preset=name)
        literal_validate(cfg)
        validate_config(cfg)


# ------------------------------------------- serialized model configs

# json.dumps(x.to_dict()) as written before the fields were derived
GEOMETRY_JSON = {
    None: '{"image_size": 64, "n_steps": 10, "n_angles_init": 20, '
          '"n_angles_rest": 3, "n_offsets": 100, '
          '"rotation_delta": 0.10471975511965977}',
    "desk": '{"image_size": 32, "n_steps": 8, "n_angles_init": 20, '
            '"n_angles_rest": 3, "n_offsets": 47, '
            '"rotation_delta": 0.1308996938995747}',
    "paper": '{"image_size": 64, "n_steps": 10, "n_angles_init": 20, '
             '"n_angles_rest": 3, "n_offsets": 100, '
             '"rotation_delta": 0.10471975511965977}',
}
STT_JSON = {
    None: '{"model_dim": 64, "heads": 4, "layers": 2, "image_size": 64, '
          '"window": null, "enc_channels": [16, 32, 64]}',
    "desk": '{"model_dim": 64, "heads": 4, "layers": 2, "image_size": 32, '
            '"window": null, "enc_channels": [16, 32, 64]}',
    "paper": '{"model_dim": 512, "heads": 8, "layers": 6, "image_size": 64, '
             '"window": null, "enc_channels": [16, 32, 64]}',
}
# the same, as checkpoints wrote them while the model had a history cap
STT_JSON_CAPPED = {
    None: '{"model_dim": 64, "heads": 4, "layers": 2, "image_size": 64, '
          '"max_context": 64, "window": null, "enc_channels": [16, 32, 64]}',
    "desk": '{"model_dim": 64, "heads": 4, "layers": 2, "image_size": 32, '
            '"max_context": 64, "window": null, '
            '"enc_channels": [16, 32, 64]}',
    "paper": '{"model_dim": 512, "heads": 8, "layers": 6, "image_size": 64, '
             '"max_context": 64, "window": null, '
             '"enc_channels": [16, 32, 64]}',
}
UAR_JSON = ('{"unroll": 20, "gamma_channels": 32, '
            '"critic_channels": [16, 16, 32, 32, 32, 32], '
            '"critic_hidden": 64}')


@pytest.mark.parametrize("preset", [None, "desk", "paper"])
def test_to_dict_bytes_unchanged(preset):
    cfg = load_config(preset=preset)
    geom = geometry_from(cfg)
    assert json.dumps(geom.to_dict()) == GEOMETRY_JSON[preset]
    for section in ("train_refine", "train_predict"):
        model = stt_config_from(cfg[section], geom.image_size)
        assert json.dumps(model.to_dict()) == STT_JSON[preset]
        assert SttConfig.from_dict(json.loads(STT_JSON[preset])) == model
        capped = json.loads(STT_JSON_CAPPED[preset])
        assert SttConfig.from_dict(capped) == model
    back = ScanGeometry.from_dict(json.loads(GEOMETRY_JSON[preset]))
    assert json.dumps(back.to_dict()) == GEOMETRY_JSON[preset]


def test_bare_defaults_serialize_unchanged():
    assert json.dumps(ScanGeometry().to_dict()) == GEOMETRY_JSON[None]
    assert json.dumps(SttConfig().to_dict()) == STT_JSON[None]
    assert json.dumps(UarConfig().to_dict()) == UAR_JSON
    assert fields_from_dict(UarConfig, json.loads(UAR_JSON)) == UarConfig()


# ------------------------------------------- settable fields only

# values each config builder fixes per run, not read from the config
PER_RUN = {"image_size", "seed", "out_dir", "log_path"}

# each config dataclass and the config section it is built from
SECTION_OF = {
    ScanGeometry: SCHEMA["geometry"],
    SttConfig: SCHEMA["train_refine"]["model"],
    TrainConfig: SCHEMA["train_refine"],
    ReconConfig: SCHEMA["recon"],
    UarConfig: SCHEMA["train_uar"],
    UarTrainConfig: SCHEMA["train_uar"],
}


@pytest.mark.parametrize("cls", SECTION_OF, ids=lambda cls: cls.__name__)
def test_config_fields_are_settings_a_caller_sets(cls):
    """A config dataclass holds only what its config section sets, what
    its builder fixes per run, and the STT encoder widths, a model shape
    that every checkpoint stores; a value with one setting in use is a
    module constant instead."""
    allowed = set(SECTION_OF[cls]) | PER_RUN
    if cls is SttConfig:
        allowed.add("enc_channels")
    assert [f.name for f in dataclasses.fields(cls)
            if f.name not in allowed] == []


@pytest.mark.parametrize("cls", SECTION_OF, ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(cls):
    """Each field becomes a config key unless its builder fixes it, so a
    field the package never reads as an attribute is a dead setting."""
    read = set()
    for path in pathlib.Path(config.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    assert [f.name for f in dataclasses.fields(cls)
            if f.name not in read] == []
