"""Flat ``key = value`` config files and ``--set key=value`` overrides.

Values are coerced to the target dataclass field types (bool, int, float, str,
tuples of strings, and Optional[int]); unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ConfigError

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def read_kv_file(path):
    """Parse a flat key = value text file; '#' starts a comment line."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not UTF-8 text ({e.reason})") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        mapping[key] = value.strip()
    return mapping


def apply_overrides(mapping, assignments):
    """Apply ``key=value`` strings (from repeated --set flags) onto a mapping."""
    out = dict(mapping)
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def coerce(value, target, key):
    """``value``, a string, as the field type ``target``; a value that does not
    parse as that type is a :class:`ConfigError` naming ``key``."""
    if typing.get_origin(target) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(target) if a is not type(None)]
        if value.lower() in ("none", ""):
            return None
        return coerce(value, args[0], key)
    if target is bool:
        try:
            return _BOOL_WORDS[value.lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got {value!r}") from None
    if target is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if target is float:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if target is str:
        return value
    if typing.get_origin(target) in (tuple, list) or target in (tuple, list):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    raise ConfigError(f"{key}: unsupported config field type {target!r}")


def dataclass_from_mapping(cls, mapping, extra_keys=()):
    """Build a dataclass from string values, coercing per field annotation.

    ``extra_keys`` are tolerated (and ignored) so one file can feed several
    consumers; any other unknown key is an error.
    """
    hints = typing.get_type_hints(cls)
    field_names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key in extra_keys:
            continue
        if key not in field_names:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        if isinstance(value, str):
            kwargs[key] = coerce(value, hints[key], key)
        else:
            kwargs[key] = value
    return cls(**kwargs)
