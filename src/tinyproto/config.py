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
``client.local_update`` reads included, and checks itself when it is made.
Validation collects every problem and reports them together, each prefixed
with the offending key: a key set twice, a value that does not parse, a
float that is NaN or infinite, or a value out of range.
"""

from __future__ import annotations

import errno
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Container

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


@dataclass
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

    def problems(self) -> list[str]:
        """Every validation failure, named by the config-file key; a
        non-finite float is reported alone, not also as out of range."""
        non_finite = [
            attr
            for attr, parser in _KEYS.values()
            if parser is float and not math.isfinite(getattr(self, attr))
        ]
        out = [f"{_ATTR_TO_KEY[a]}: must be finite, got {getattr(self, a)}" for a in non_finite]

        def bad(attr: str, message: str) -> None:
            if attr not in non_finite:
                out.append(f"{_ATTR_TO_KEY[attr]}: {message}")

        positive_ints = [
            "n_clients",
            "n_classes",
            "input_dim",
            "proto_dim",
            "comp_dim",
            "batch_size",
            "local_epochs",
            "rounds",
            "per_class",
            "hidden_dim",
        ]
        if self.seed < 0:
            bad("seed", "must be >= 0")
        for attr in positive_ints:
            if getattr(self, attr) < 1:
                bad(attr, "must be >= 1")
        if self.comp_dim > self.proto_dim:
            bad("comp_dim", f"must be <= d (got s={self.comp_dim}, d={self.proto_dim})")
        if self.alpha <= 0:
            bad("alpha", "must be > 0")
        if self.lam < 0:
            bad("lam", "must be >= 0")
        if self.mu <= 0:
            bad("mu", "must be > 0")
        if self.lr <= 0:
            bad("lr", "must be > 0")
        if self.sigma <= 0:
            bad("sigma", "must be > 0")
        if not 0 < self.participation <= 1:
            bad("participation", "must lie in (0, 1]")
        if self.workers != 1:
            bad("workers", "must be 1 (client updates run serially)")
        if self.aggregator not in AGGREGATOR_CHOICES:
            bad("aggregator", f"must be one of {', '.join(AGGREGATOR_CHOICES)}")
        return out

    def validate(self) -> "ExperimentConfig":
        """Raise :class:`ConfigError` listing every problem, else return self;
        runs when the config is made, and again wherever a field may have
        changed since."""
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
