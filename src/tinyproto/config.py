"""Flat key-value experiment configuration with full validation.

Files look like:

    # desk-scale run
    seed = 7
    M = 6
    K = 4
    D = 8
    d = 16
    s = 4
    alpha = 0.5
    lambda = 1.0
    mu = 1.0
    lr = 0.01
    batch_size = 32
    local_epochs = 1
    rounds = 30
    participation = 1.0
    aggregator = scaled
    cps = on

Optional extras: per_class, sigma, hidden, workers.  Client updates run
serially, so ``workers`` accepts only 1; the key stays so that existing
configs that set it to 1 still load.  No key sets the train/test split:
each client trains on 75% of its shard.
An :class:`ExperimentConfig` holds every setting of a run, the five that
``client.local_update`` reads included.  It checks itself when it is made
and is frozen, so a run executes exactly the settings that were checked;
``dataclasses.replace`` makes a changed copy, which is checked in turn.
Validation collects every problem and reports them together, each prefixed
with the offending key: a key set twice, a value that does not parse, a
value of the wrong type (a bool where a number belongs, say), a float that
is NaN or infinite, or a value out of range.  A value that passes is kept
as a plain Python ``int`` or ``float`` (a numpy scalar included), so a run
summary can be written as JSON.  A ``float`` is the value's float64: a
``np.float32(0.28)`` participation is 0.2800000011920929, which samples 8
of 25 clients where 0.28 samples 7.
"""

from __future__ import annotations

import errno
import math
import numbers
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Container

import numpy as np

from .aggregation import AGGREGATOR_CHOICES

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "split_key_value_lines",
    "read_utf8_text",
    "parse_config_text",
    "load_config",
]


class ConfigError(ValueError):
    """One or more invalid configuration entries."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  {p}" for p in problems))


# file key -> (attribute, parser)
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


_KEYS: dict[str, tuple[str, type | object]] = {
    "seed": ("seed", int),
    "M": ("n_clients", int),
    "K": ("n_classes", int),
    "D": ("input_dim", int),
    "d": ("proto_dim", int),
    "s": ("comp_dim", int),
    "alpha": ("alpha", float),
    "lambda": ("lam", float),
    "mu": ("mu", float),
    "lr": ("lr", float),
    "batch_size": ("batch_size", int),
    "local_epochs": ("local_epochs", int),
    "rounds": ("rounds", int),
    "participation": ("participation", float),
    "aggregator": ("aggregator", str),
    "cps": ("cps", _parse_bool),
    "per_class": ("per_class", int),
    "sigma": ("sigma", float),
    "hidden": ("hidden_dim", int),
    "workers": ("workers", int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def _is_int(value) -> bool:
    """An integer other than a bool, as ``masking._as_int`` accepts."""
    return not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__")


# parser -> (does a value have the type the parser makes, that type's name)
_TYPES = {
    int: (_is_int, "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    str: (lambda v: isinstance(v, str), "a string"),
    _parse_bool: (lambda v: isinstance(v, bool), "a bool"),
}

# parser -> how a value that has its type is stored
_PLAIN = {int: operator.index, float: float}

# attribute -> (test a value of the right type must pass, message if it fails)
_RANGES = {
    "seed": (lambda v: v >= 0, "must be >= 0"),
    **dict.fromkeys(
        ("n_clients", "n_classes", "input_dim", "proto_dim", "comp_dim",
         "batch_size", "local_epochs", "rounds", "per_class", "hidden_dim"),
        (lambda v: v >= 1, "must be >= 1"),
    ),
    "alpha": (lambda v: v > 0, "must be > 0"),
    "lam": (lambda v: v >= 0, "must be >= 0"),
    "mu": (lambda v: v > 0, "must be > 0"),
    "lr": (lambda v: v > 0, "must be > 0"),
    "sigma": (lambda v: v > 0, "must be > 0"),
    "participation": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "workers": (lambda v: v == 1, "must be 1 (client updates run serially)"),
    "aggregator": (
        lambda v: v in AGGREGATOR_CHOICES,
        f"must be one of {', '.join(AGGREGATOR_CHOICES)}",
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_clients: int = 4
    n_classes: int = 3
    input_dim: int = 8
    proto_dim: int = 16
    comp_dim: int = 4
    alpha: float = 0.5
    lam: float = 1.0
    mu: float = 1.0
    lr: float = 0.01
    batch_size: int = 32
    local_epochs: int = 1
    rounds: int = 10
    participation: float = 1.0
    aggregator: str = "scaled"
    cps: bool = True
    per_class: int = 100
    sigma: float = 0.35
    hidden_dim: int = 32
    workers: int = 1  # only 1: client updates run serially

    def __post_init__(self) -> None:
        self.validate()
        for attr, parser in _KEYS.values():
            if parser in _PLAIN:
                object.__setattr__(self, attr, _PLAIN[parser](getattr(self, attr)))

    def problems(self) -> list[str]:
        """Every validation failure, named by the config-file key; a value
        of the wrong type, or a non-finite float, is reported alone, not
        also as out of range."""
        out = []
        for key, (attr, parser) in _KEYS.items():
            value = getattr(self, attr)
            has_type, type_name = _TYPES[parser]
            if not has_type(value):
                out.append(f"{key}: must be {type_name}, got {value!r}")
            elif parser is float and not math.isfinite(value):
                out.append(f"{key}: must be finite, got {value}")
            elif attr in _RANGES and not _RANGES[attr][0](value):
                out.append(f"{key}: {_RANGES[attr][1]}")
        s, d = self.comp_dim, self.proto_dim
        if _is_int(s) and _is_int(d) and s > d:
            out.append(f"s: must be <= d (got s={s}, d={d})")
        return out

    def validate(self) -> "ExperimentConfig":
        """Raise :class:`ConfigError` listing every problem, else return self;
        runs when the config is made, and a frozen config cannot change
        afterwards."""
        problems = self.problems()
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self) -> dict:
        """File-key view of the config (for logs and summaries)."""
        values = {}
        for f in fields(self):
            key = _ATTR_TO_KEY[f.name]
            value = getattr(self, f.name)
            values[key] = ("on" if value else "off") if isinstance(value, bool) else value
        return values


def split_key_value_lines(
    text: str, known: Container[str]
) -> tuple[list[tuple[str, str]], list[str]]:
    """Split `key = value` lines ('#' starts a comment) into raw string pairs.

    Returns the pairs in file order and the problems found: a line without
    '=' is named by its line number, a key outside ``known`` by the key, and
    a key set again by the key and both line numbers.
    """
    pairs = []
    problems = []
    first_line = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            problems.append(f"{key}: unknown key")
            continue
        if key in first_line:
            problems.append(f"{key}: set more than once (lines {first_line[key]} and {line_no})")
            continue
        first_line[key] = line_no
        pairs.append((key, value))
    return pairs, problems


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; '#' starts a comment."""
    pairs, problems = split_key_value_lines(text, _KEYS)
    values = {}
    for key, value in pairs:
        attr, parser = _KEYS[key]
        try:
            values[attr] = parser(value)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values)


def read_utf8_text(path) -> str:
    """The file's text, read as UTF-8; a file that is not UTF-8 raises an
    ``OSError`` naming it, like every other unreadable file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(
            errno.EILSEQ, f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)
        ) from None


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_utf8_text(path))
