"""Config dataclasses <-> JSON values, and the value rules on their fields.

`to_dict` writes a dataclass as plain JSON values (nested dataclasses as
objects, tuples as lists).  `from_dict` rebuilds one from such a dict,
checking each value against its field's annotation:

  - int: a JSON integer, not true/false;
  - float: a JSON number, not true/false, stored as a float;
  - bool: true/false; str or Literal[...]: a string;
  - tuple[T, T, T]: a list of exactly that length; tuple[T, ...]: any length;
  - a nested dataclass: an object, checked field by field.

Unknown keys are rejected and a missing key takes the field's default.

Value rules are declared on the fields and enforced by `check_fields`, which
each config class's `__post_init__` calls first, so Python and JSON
construction fail alike: a float is finite, a Literal holds one of its
choices, and a metadata bound (`{"ge": 1}`, "gt", "le", "lt") holds for the
value or each tuple element.  Only cross-field rules are hand-written.
Errors name the field; `from_dict` prefixes its dotted path (`scene.c_lidar`).
"""

from __future__ import annotations

import dataclasses
import math
import operator
import typing
from collections.abc import Mapping
from functools import cache
from types import MappingProxyType


class ConfigError(ValueError):
    """Invalid config; carries the offending field path and the reason."""

    def __init__(self, fld: str, reason: str) -> None:
        super().__init__(f"config field '{fld}': {reason}")
        self.field = fld
        self.reason = reason


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


_BOUNDS = {"ge": operator.ge, "gt": operator.gt, "le": operator.le, "lt": operator.lt}
_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
_ZERO_WORDS = {"ge": "non-negative", "gt": "positive"}


@cache
def _field_rules(cls) -> tuple:
    """(name, holds a tuple, must be finite, (test, key, bound) per metadata
    bound, Literal choices) for each field of cls that has a rule."""
    rules = []
    for f in dataclasses.fields(cls):
        tp = field_types(cls)[f.name]
        is_tuple = typing.get_origin(tp) is tuple
        elem = typing.get_args(tp)[0] if is_tuple else tp
        bounds = tuple((_BOUNDS[key], key, bound) for key, bound in f.metadata.items())
        choices = typing.get_args(elem) if typing.get_origin(elem) is typing.Literal else ()
        if elem is float or bounds or choices:
            rules.append((f.name, is_tuple, elem is float, bounds, choices))
    return tuple(rules)


def check_fields(obj) -> None:
    """Enforce the rules declared on obj's fields; ConfigError names the field."""
    for name, is_tuple, finite, bounds, choices in _field_rules(type(obj)):
        value = getattr(obj, name)
        for v in value if is_tuple else (value,):
            if finite and not math.isfinite(v):
                raise ConfigError(name, f"must be finite, got {v!r}")
            for test, key, bound in bounds:
                if not test(v, bound):
                    words = bound == 0 and _ZERO_WORDS.get(key) or f"{_SYMBOLS[key]} {bound}"
                    raise ConfigError(name, f"must be {words}, got {v!r}")
            if choices and v not in choices:
                raise ConfigError(name, f"must be one of {choices}, got {v!r}")


def from_dict(cls, d, path: str = ""):
    """Build `cls` from a JSON object.  `path` is the dotted name of `d`
    in the enclosing config, empty at the root."""
    if not isinstance(d, dict):
        raise ConfigError(path or "<root>", f"must be an object, got {d!r}")
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
    except ConfigError as e:
        # the class names its own field; say where the class sits
        raise ConfigError(f"{path}.{e.field}" if path else e.field, e.reason) from e


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
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(path, f"must be finite, got {value!r}") from None
    if typing.get_origin(tp) is typing.Literal:
        tp = str  # check_fields checks the choice
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
