"""Config dataclasses <-> JSON values: one (de)serialiser for every config.

`to_dict` writes a dataclass as plain JSON values (nested dataclasses as
objects, tuples as lists).  `from_dict` rebuilds one from such a dict,
checking each value against its field's annotation:

  - int: a JSON integer, not true/false;
  - float: a finite JSON number, not true/false, stored as a float;
  - bool: true/false; str: a string;
  - tuple[T, T, T]: a list of exactly that length; tuple[T, ...]: any length;
  - a nested dataclass: an object, checked field by field.

Unknown keys are rejected, a missing key takes the field's default, and a
ValueError from a class's own `__post_init__` becomes a ConfigError for the
object that failed.  Errors name the dotted field path (`scene.dims_low`).
"""

from __future__ import annotations

import dataclasses
import math
import typing
from collections.abc import Mapping
from functools import cache
from types import MappingProxyType


class ConfigError(ValueError):
    """Invalid config; carries the offending field path."""

    def __init__(self, fld: str, message: str) -> None:
        super().__init__(f"config field '{fld}': {message}")
        self.field = fld


def to_dict(obj) -> dict:
    """A dataclass as JSON values, fields in declaration order."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _plain(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@cache
def field_types(cls) -> Mapping[str, object]:
    """Resolved annotation of each field of a dataclass (read-only, shared)."""
    hints = typing.get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(cls)})


def from_dict(cls, d, path: str = ""):
    """Build `cls` from a JSON object.  `path` is the dotted name of `d`
    in the enclosing config, empty at the root."""
    where = path or "<root>"
    if not isinstance(d, dict):
        raise ConfigError(where, f"must be an object, got {d!r}")
    types = field_types(cls)
    for key in d:
        if key not in types:
            # an unknown key at the root is its own field; below, its section
            raise ConfigError(path or key, f"unknown key {key!r}")
    kwargs = {k: _check(v, types[k], f"{path}.{k}" if path else k) for k, v in d.items()}
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in kwargs:
            raise ConfigError(f"{path}.{f.name}" if path else f.name, "missing key")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(where, str(e)) from e


def _check(value, tp, path: str):
    if tp is int:
        # JSON true/false parse as bool, a subclass of int
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(path, f"must be an integer, got {value!r}")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(path, f"must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(path, f"must be finite, got {value!r}")
        return number
    if tp is bool or tp is str:
        if type(value) is not tp:
            kind = "true or false" if tp is bool else "a string"
            raise ConfigError(path, f"must be {kind}, got {value!r}")
        return value
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"must be a list, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(path, f"must have exactly {len(args)} items, got {len(value)}")
        return tuple(_check(v, args[0], path) for v in value)
    if dataclasses.is_dataclass(tp):
        # an instance is already checked: parse_config builds the grid and
        # loss sections under their own names before placing them
        return value if isinstance(value, tp) else from_dict(tp, value, path)
    raise TypeError(f"{path}: unsupported field type {tp!r}")
