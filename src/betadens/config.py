"""Flat key=value experiment configurations.

One experiment per file; lines are `key = value`, blank lines and `#`
comments are ignored.  Unknown keys are rejected.  `validate_config` checks
every config before it runs, whether parsed, overridden or built in code:
each required key of its experiment (a key with no default) must be set,
and every value must lie in range.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .kernels import KERNELS

# experiment -> (required keys, optional keys); `experiment` itself is implied
_SCHEMA = {
    "kernel-gaussian-figure": ({"n", "mu", "sigma2"},
                               {"kernel", "bandwidth", "master_seed", "grid_points",
                                "out_dir", "burn_in"}),
    "histogram-two-level-figure": ({"n"},
                                   {"m", "bins_constant", "master_seed", "out_dir",
                                    "burn_in"}),
    "risk-table-sweep": ({"n_grid"},
                         {"trials", "p", "bins_constant", "master_seed", "threads",
                          "out_dir", "burn_in"}),
    "risk-slope-plot": ({"n_grid"},
                        {"trials", "p", "bins_constant", "master_seed", "threads",
                         "out_dir", "loglog", "burn_in"}),
    "lsv-histogram-figure": ({"n", "gamma"}, {"m", "master_seed", "out_dir", "burn_in"}),
    "coefficient-report": (set(), {"k_max", "quad_nodes", "out_dir"}),
}

EXPERIMENTS = tuple(_SCHEMA)


@dataclass
class ExperimentConfig:
    experiment: str
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    trials: int = 300
    master_seed: int = 1
    p: float = 1.0
    gamma: float | None = None
    mu: float | None = None
    sigma2: float | None = None
    kernel: str = "epanechnikov"
    bandwidth: str = "silverman"       # "silverman" or a float literal
    m: int | None = None
    bins_constant: float = 1.0
    threads: int = 1
    grid_points: int = 512
    k_max: int = 20
    quad_nodes: int = 64
    burn_in: int = 1000
    loglog: bool = False
    out_dir: str = "out"


def parse_n_grid(text: str) -> tuple[int, ...]:
    """Either 'start:stop:step' (inclusive stop) or a comma list."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, step = (int(part) for part in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            return tuple(range(start, stop + 1, step))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse n_grid value {text!r}") from None


def _value_type(hint):
    """The type a key's text converts to: X for a field annotated `X | None`."""
    if isinstance(hint, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return hint


_KEY_TYPES = {key: _value_type(hint)
          for key, hint in typing.get_type_hints(ExperimentConfig).items()}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert(key: str, raw: str):
    if key == "n_grid":
        return parse_n_grid(raw)
    kind = _KEY_TYPES[key]
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def parse_config(text: str) -> ExperimentConfig:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}")
        pairs[key] = raw

    if "experiment" not in pairs:
        raise ConfigError("missing required key 'experiment'")
    config = ExperimentConfig(experiment=pairs.pop("experiment"))
    required, optional = _schema(config.experiment)
    for key, raw in pairs.items():
        if key not in required | optional:
            raise ConfigError(
                f"key {key!r} does not belong to experiment {config.experiment!r}")
        setattr(config, key, _convert(key, raw))
    validate_config(config)
    return config


def _schema(experiment: str):
    try:
        return _SCHEMA[experiment]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment!r}; have {EXPERIMENTS}") from None


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError unless `config` names a known experiment, sets each of
    its required keys and keeps every value in range."""
    required, _ = _schema(config.experiment)
    missing = sorted(key for key in required if getattr(config, key) is None)
    if missing:
        raise ConfigError(f"experiment {config.experiment!r} is missing keys {missing}")
    if config.bandwidth != "silverman":
        try:
            h = float(config.bandwidth)
        except ValueError:
            h = math.nan
        if not 0.0 < h < math.inf:
            raise ConfigError("bandwidth must be 'silverman' or a number, finite and > 0, "
                              f"got {config.bandwidth!r}")
    if config.kernel.lower() not in KERNELS:
        raise ConfigError(f"unknown kernel {config.kernel!r}; have {sorted(KERNELS)}")
    if config.gamma is not None and not 0.0 < config.gamma < 1.0:
        raise ConfigError(f"gamma must lie in (0, 1), got {config.gamma}")
    if config.mu is not None and not math.isfinite(config.mu):
        raise ConfigError(f"mu must be finite, got {config.mu}")
    if config.sigma2 is not None and not 0.0 < config.sigma2 < math.inf:
        raise ConfigError(f"sigma2 must be a finite number > 0, got {config.sigma2}")
    if not 1.0 <= config.p < math.inf:
        raise ConfigError(f"p must be >= 1 and finite, got {config.p}")
    if not (math.isfinite(config.bins_constant) and config.bins_constant > 0.0):
        raise ConfigError(
            f"bins_constant must be a finite number > 0, got {config.bins_constant}")
    if config.m is not None and config.m < 1:
        raise ConfigError(f"m must be >= 1, got {config.m}")
    if config.grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2, got {config.grid_points}")
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    if config.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {config.threads}")
    if config.k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {config.k_max}")
    if not 0 <= config.master_seed < 2**64:
        raise ConfigError(
            f"master_seed must be an unsigned 64-bit integer, got {config.master_seed}")


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical, re-parseable text form (only keys that matter are kept)."""
    required, optional = _schema(config.experiment)
    keep = {"experiment"} | required | optional
    lines = []
    for f in fields(config):
        if f.name not in keep:
            continue
        value = getattr(config, f.name)
        if value is None:
            continue
        if f.name == "n_grid":
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
