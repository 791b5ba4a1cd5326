"""Flat ``key = value`` config files and ``--set key=value`` overrides.

Each value is read as its field's annotation (``bool``, ``int``, ``float``,
``str`` or ``tuple`` of strings); unknown keys are rejected.
:data:`FIELD_TYPES` says which Python values each annotation admits.
:func:`text_records` reads the lines of the config, frames and label files.
"""

from __future__ import annotations

import dataclasses
import sys

from .errors import ConfigError

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}
# what the text of a scalar annotation must spell, and how it is read
_PARSERS = {"bool": ("a boolean", lambda text: _BOOL_WORDS[text.lower()]),
            "int": ("an integer", int), "float": ("a number", float)}
# Python types a config field accepts, by its annotation (a string under
# ``from __future__ import annotations``); booleans only where it says bool.
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple": (tuple, list)}


def check_field_types(config):
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``config`` that its annotation does not admit, or a float that is not finite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not (isinstance(value, FIELD_TYPES[f.type])
                and isinstance(value, bool) == (f.type == "bool")):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        # exact for an int, so one past the float range is refused too
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def text_records(path, error):
    """Yield (line number, stripped line) of every line of a UTF-8 text file
    that is neither blank nor a '#' comment. The whole file is decoded first,
    a leading BOM dropped; bytes that are not UTF-8 raise ``error``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise error(f"{path} is not UTF-8 text ({e.reason})") from None
    for line_no, raw in enumerate(lines, start=1):
        if (line := raw.strip()) and not line.startswith("#"):
            yield line_no, line


def read_kv_file(path):
    """Parse a flat key = value text file; '#' starts a comment line. A key
    set on two lines is a :class:`ConfigError` naming both."""
    mapping, key_line = {}, {}
    for line_no, line in text_records(path, ConfigError):
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if (first := key_line.setdefault(key, line_no)) != line_no:
            raise ConfigError(f"{path}:{line_no}: {key!r} already set on line {first}")
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


def coerce(value, kind, key):
    """``value``, a string, as a value of the field annotation ``kind``, a key
    of :data:`FIELD_TYPES`; a value that does not parse as one is a
    :class:`ConfigError` naming ``key``."""
    if kind in _PARSERS:
        what, parse = _PARSERS[kind]
        try:
            return parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: expected {what}, got {value!r}") from None
    if kind == "str":
        return value
    if kind == "tuple":
        return tuple(v.strip() for v in value.split(",") if v.strip())
    raise ConfigError(f"{key}: unsupported config field type {kind!r}")


def dataclass_from_mapping(cls, mapping, extra_keys=()):
    """Build a dataclass from the string values of ``mapping``, coercing each
    per field annotation.

    ``extra_keys`` are tolerated (and ignored) so one file can feed several
    consumers; any other unknown key is an error.
    """
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key in extra_keys:
            continue
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        kwargs[key] = coerce(value, kinds[key], key)
    return cls(**kwargs)
