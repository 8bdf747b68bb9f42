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

A setting is declared once, on its :class:`ExperimentConfig` field (file
key, default, range test and message); its type picks its parser, type
test and stored form from ``_KINDS``.  :func:`is_int` is the one integer
rule, and :func:`as_int` its raising form, which the mask, cost and frame
modules use.  The aggregator names are declared here, as
``AGGREGATOR_CHOICES``, and the module imports nothing from the package.

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

# no ``from __future__ import annotations``: ``_KINDS`` is looked up by each
# field's annotation, which must stay the type itself, not its name
import errno
import math
import numbers
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Container

import numpy as np

__all__ = [
    "AGGREGATOR_CHOICES",
    "ConfigError",
    "ExperimentConfig",
    "is_int",
    "as_int",
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


def is_int(value) -> bool:
    """An integer other than a bool (numpy's integers count, ``np.True_`` does not)."""
    return not isinstance(value, (bool, np.bool_)) and hasattr(type(value), "__index__")


def as_int(name: str, value) -> int:
    """``value`` as a Python int; refuse bools and anything not an integer."""
    if is_int(value):
        return operator.index(value)
    the_bool = "the bool " if isinstance(value, (bool, np.bool_)) else ""
    raise ValueError(f"{name} must be an integer, got {the_bool}{value!r}")


AGGREGATOR_CHOICES = ("simple", "scaled")


def _parse_as(kind: type, what: str):
    """``kind``'s text parser, whose error names the value and what it is not."""

    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"expected {what}, got {text!r}") from None

    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


# field annotation -> (text parser, type test, type name, how a value that
# has the type is stored: as the plain Python value, so a summary can hold it)
_KINDS = {
    int: (_parse_as(int, "an integer"), is_int, "an integer", operator.index),
    float: (
        _parse_as(float, "a number"),
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
        "a real number",
        float,
    ),
    str: (str, lambda v: isinstance(v, str), "a string", str),
    bool: (_parse_bool, lambda v: isinstance(v, bool), "a bool", bool),
}


def _setting(key: str, default, test=None, message: str = ""):
    """A field read from file key ``key``; a value of the field's type that
    fails ``test`` is reported as ``message``."""
    return field(default=default, metadata={"key": key, "test": test, "message": message})


_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_POSITIVE = (lambda v: v > 0, "must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a run; each field declares its file key, default and range."""

    seed: int = _setting("seed", 0, *_AT_LEAST_0)
    n_clients: int = _setting("M", 4, *_AT_LEAST_1)
    n_classes: int = _setting("K", 3, *_AT_LEAST_1)
    input_dim: int = _setting("D", 8, *_AT_LEAST_1)
    proto_dim: int = _setting("d", 16, *_AT_LEAST_1)
    comp_dim: int = _setting("s", 4, *_AT_LEAST_1)
    alpha: float = _setting("alpha", 0.5, *_POSITIVE)
    lam: float = _setting("lambda", 1.0, *_AT_LEAST_0)
    mu: float = _setting("mu", 1.0, *_POSITIVE)
    lr: float = _setting("lr", 0.01, *_POSITIVE)
    batch_size: int = _setting("batch_size", 32, *_AT_LEAST_1)
    local_epochs: int = _setting("local_epochs", 1, *_AT_LEAST_1)
    rounds: int = _setting("rounds", 10, *_AT_LEAST_1)
    participation: float = _setting(
        "participation", 1.0, lambda v: 0 < v <= 1, "must lie in (0, 1]"
    )
    aggregator: str = _setting(
        "aggregator", "scaled", lambda v: v in AGGREGATOR_CHOICES,
        f"must be one of {', '.join(AGGREGATOR_CHOICES)}",
    )
    cps: bool = _setting("cps", True)
    per_class: int = _setting("per_class", 100, *_AT_LEAST_1)
    sigma: float = _setting("sigma", 0.35, *_POSITIVE)
    hidden_dim: int = _setting("hidden", 32, *_AT_LEAST_1)
    workers: int = _setting(
        "workers", 1, lambda v: v == 1, "must be 1 (client updates run serially)"
    )

    def __post_init__(self) -> None:
        self.validate()
        for f in fields(self):
            store = _KINDS[f.type][3]
            object.__setattr__(self, f.name, store(getattr(self, f.name)))

    def problems(self) -> list[str]:
        """Every validation failure, named by the config-file key; a value
        of the wrong type, or a non-finite float, is reported alone, not
        also as out of range."""
        out = []
        for f in fields(self):
            key, test = f.metadata["key"], f.metadata["test"]
            _, has_type, type_name, _ = _KINDS[f.type]
            value = getattr(self, f.name)
            if not has_type(value):
                out.append(f"{key}: must be {type_name}, got {value!r}")
            elif f.type is float and not math.isfinite(value):
                out.append(f"{key}: must be finite, got {value}")
            elif test is not None and not test(value):
                out.append(f"{key}: {f.metadata['message']}")
        s, d = self.comp_dim, self.proto_dim
        if is_int(s) and is_int(d) and s > d:
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
            value = getattr(self, f.name)
            values[f.metadata["key"]] = ("on" if value else "off") if f.type is bool else value
        return values


# file key -> field
_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


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
        f = _KEYS[key]
        try:
            values[f.name] = _KINDS[f.type][0](value)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**values)


def read_utf8_text(path) -> str:
    """The file's text, read as UTF-8 less one leading byte-order mark; a
    file that is not UTF-8 raises an ``OSError`` naming it, like every other
    unreadable file.  The mark is dropped after decoding, not by the
    ``utf-8-sig`` codec, which would count the byte of a decoding error from
    the end of the mark rather than from the start of the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(
            errno.EILSEQ, f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)
        ) from None


def load_config(path) -> ExperimentConfig:
    return parse_config_text(read_utf8_text(path))
