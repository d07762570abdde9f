"""INI config files whose sections are the module config dataclasses.

Sections: [model] ModelConfig, [data] DataSettings, [teacher] TeacherConfig,
[recovery] RecoveryConfig, [prune] PruneSettings. Each field is one key, of
the type of its default; the one tuple field, `tasks`, is a comma list of
strings. A `seed` field is not a key: the CLI derives every seed from its
--seed. Every key is optional; CLI flags override file values. A setting
flag is its key with dashes and parses its value as the file does
(`flag_type`). Unknown sections (`[DEFAULT]` too) and keys fail loudly. A
`%` in a value is literal.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools

from . import data as D
from .model import ModelConfig
from .recovery import RecoveryConfig, TeacherConfig
from .tensor import ParameterError


class ConfigError(ParameterError):
    """Unparsable config file, unknown key, or bad value."""


@dataclasses.dataclass(frozen=True)
class DataSettings:
    tasks: tuple = D.TASKS
    n: int = 1920
    eval_fraction: float = 0.2


@dataclasses.dataclass(frozen=True)
class PruneSettings:
    calib_size: int = 10
    min_heads: int = 1
    min_channels: int | None = None  # None: head_dim


_SECTIONS = {"model": ModelConfig, "data": DataSettings, "teacher": TeacherConfig,
             "recovery": RecoveryConfig, "prune": PruneSettings}


def _keys(cls):
    """{INI key: default} of one section's dataclass; `seed` is not a key."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name != "seed"}


def _parse(default, raw):
    """An INI string as the type of `default`; a None default is an optional int."""
    if isinstance(default, tuple):  # a comma list of strings, blanks dropped
        return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    return (int if default is None else type(default))(raw.strip())


def flag_type(section, key):
    """The argparse `type` of the flag of [section] `key`: `_parse` with the
    key's default, named for the key in argparse's error message."""
    parse = functools.partial(_parse, _keys(_SECTIONS[section])[key])
    parse.__name__ = f"[{section}] {key}"
    return parse


def set_flags(section, args):
    """{key: value} of each [section] key that the parsed flags `args` set."""
    return {key: getattr(args, key) for key in _keys(_SECTIONS[section])
            if getattr(args, key, None) is not None}


def load_config(path):
    """Parse an INI file into {section: {key: typed value}}."""
    # no header can name the empty default section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(D.decode(path, "config file", as_json=False), source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    out = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        defaults = _keys(_SECTIONS[section])
        values = {}
        for key, raw in parser.items(section):
            if key not in defaults:
                hint = "; --seed sets every seed" if key == "seed" else ""
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]{hint}")
            try:
                values[key] = _parse(defaults[key], raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r}") from exc
        out[section] = values
    return out


def _build(section, cfg, overrides):
    """The section's dataclass from the file values of `cfg` and every
    override that is not None, defaults filling the rest."""
    cls = _SECTIONS[section]
    values = dict(cfg.get(section, {}))
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [{section}] config: {exc}") from exc


def model_config(cfg, overrides=None):
    return _build("model", cfg, overrides)


def teacher_config(cfg, overrides=None):
    return _build("teacher", cfg, overrides)


def recovery_config(cfg, overrides=None):
    return _build("recovery", cfg, overrides)


def data_settings(cfg, overrides=None):
    return dataclasses.asdict(_build("data", cfg, overrides))


def prune_settings(cfg, overrides=None):
    return dataclasses.asdict(_build("prune", cfg, overrides))
