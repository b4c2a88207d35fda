"""Field specs: each config field states its default and bound once.

A config dataclass declares an exposed field as ``name: type =
spec(default, minimum=..., ...)``.  The annotation gives the type (int,
float, str, ``X | None`` for nullable, ``tuple[int, ...]`` for an integer
list), the metadata the bound.  check_value is the one checker: each
dataclass runs it from ``__post_init__`` through check_fields, and
config.validate_config runs it on JSON documents, so both reject the
same values.  Floats must be finite, so NaN cannot slip past a bound.
"""

import contextlib
import dataclasses
import math
import numbers
import typing

from .errors import ConfigError

__all__ = ["spec", "check_value", "check_fields", "fields_to_dict",
           "fields_from_dict", "under"]


def spec(default=dataclasses.MISSING, *, minimum=None, above=None,
         choices=None, length=None):
    """dataclasses.field whose value check_fields checks.

    minimum: value (or every list entry) >= minimum; above: value > above;
    choices: allowed values; length: required list length.
    """
    bounds = {"minimum": minimum, "above": above, "choices": choices,
              "length": length}
    return dataclasses.field(default=default, metadata={"bounds": bounds})


def _fits(kind, value):
    if kind is str:
        return isinstance(value, str)
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def check_value(f, value, path):
    """Raise ConfigError at path unless value fits field f's type and bound."""
    kind, bounds = f.type, f.metadata["bounds"]
    args = typing.get_args(kind)
    if value is None:
        if type(None) in args:
            return
        raise ConfigError(path, "must not be null")
    items = (value,)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list, got {value!r}")
        if bounds["length"] is not None and len(value) != bounds["length"]:
            raise ConfigError(
                path, f"expected {bounds['length']} entries, got {len(value)}")
        kind, items = typing.get_args(kind)[0], value
    elif type(None) in args:
        kind = args[0]
    for v in items:
        if not _fits(kind, v):
            raise ConfigError(path, f"expected {kind.__name__}, got {v!r}")
        if kind is float and not (isinstance(v, numbers.Integral)
                                  or math.isfinite(v)):
            raise ConfigError(path, f"must be finite, got {v}")
        if bounds["minimum"] is not None and v < bounds["minimum"]:
            raise ConfigError(path, f"must be >= {bounds['minimum']}, got {v}")
        if bounds["above"] is not None and not v > bounds["above"]:
            raise ConfigError(path, f"must be > {bounds['above']}, got {v}")
        if bounds["choices"] is not None and v not in bounds["choices"]:
            raise ConfigError(
                path, f"must be one of {sorted(bounds['choices'])}, got {v!r}")


def check_fields(obj):
    """check_value on every spec field of a dataclass instance."""
    for f in dataclasses.fields(obj):
        if "bounds" in f.metadata:
            check_value(f, getattr(obj, f.name), "/" + f.name)


def fields_to_dict(obj):
    """The fields of a dataclass as a JSON-ready dict; tuples become lists."""
    out = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def fields_from_dict(cls, d):
    """Inverse of fields_to_dict: cls(**d), lists turned back into tuples."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in d.items()})


@contextlib.contextmanager
def under(prefix):
    """Put prefix in front of the path of any ConfigError raised inside."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(prefix + exc.path, exc.message) from None
