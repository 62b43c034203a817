"""Flat key=value experiment configurations.

One experiment per file; lines are `key = value`, blank lines and `#`
comments are ignored.  An experiment is a dataclass: `experiment` names it,
its fields are its keys, typed as what their text converts to (int, float
or str, or for `n_grid` a tuple of ints), and a field with no default is
required.  `parse_config` gives the pairs of a file and the overrides (the
command-line flags) the same checks; the error for a key the experiment does
not take lists the keys it does.  `validate_config` checks every config
before it runs, parsed or built in code, by the one range rule of each key
and the bounds on a run's steps (MAX_STEPS) and a sweep's trials
(MAX_TRIALS).
"""

import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from .depcoeff import MAX_CLOSED_K
from .errors import ConfigError
from .kernels import KERNELS
from .processes import DEFAULT_BURN_IN, MAX_BINS, MAX_STEPS
from .risk import MAX_TRIALS, MAX_WORKERS

MAX_GRID_POINTS = 2**20  # largest kernel-figure grid: 8 MB per array over it


@dataclass(kw_only=True)
class Experiment:
    """The base of every experiment's config, which all have a seed."""
    experiment: ClassVar[str]
    master_seed: int = 1


@dataclass(kw_only=True)
class KernelGaussianFigure(Experiment):
    experiment: ClassVar[str] = "kernel-gaussian-figure"
    # no key: the benchmark measures this figure's estimator by its L1 risk
    p: ClassVar[float] = 1.0
    n: int
    mu: float
    sigma2: float
    kernel: str = "epanechnikov"
    bandwidth: str = "silverman"       # "silverman" or a float literal
    grid_points: int = 512
    burn_in: int = DEFAULT_BURN_IN


@dataclass(kw_only=True)
class HistogramTwoLevelFigure(Experiment):
    experiment: ClassVar[str] = "histogram-two-level-figure"
    n: int
    m: int = None                      # None: the bin-count schedule's m
    burn_in: int = DEFAULT_BURN_IN


@dataclass(kw_only=True)
class RiskTableSweep(Experiment):
    experiment: ClassVar[str] = "risk-table-sweep"
    n_grid: tuple[int, ...]
    trials: int = 300
    p: float = 1.0
    bins_constant: float = 1.0
    threads: int = 1
    burn_in: int = DEFAULT_BURN_IN


@dataclass(kw_only=True)
class RiskSlopePlot(RiskTableSweep):
    experiment: ClassVar[str] = "risk-slope-plot"


@dataclass(kw_only=True)
class LsvHistogramFigure(Experiment):
    experiment: ClassVar[str] = "lsv-histogram-figure"
    n: int
    gamma: float
    m: int = None                      # None: the bin-count schedule's m
    burn_in: int = DEFAULT_BURN_IN


@dataclass(kw_only=True)
class CoefficientReport(Experiment):
    experiment: ClassVar[str] = "coefficient-report"
    # no key: it draws no sample, and code that totals sample sizes reads None
    n: ClassVar[None] = None
    # no key, as nothing here is random; a field so that reseeding every config works
    master_seed: int = field(default=1, metadata={"key": False})
    k_max: int = 20


EXPERIMENTS = {cls.experiment: cls for cls in (KernelGaussianFigure, HistogramTwoLevelFigure,
               RiskTableSweep, RiskSlopePlot, LsvHistogramFigure, CoefficientReport)}


def config_keys(cls: type[Experiment]) -> dict[str, Field]:
    """The keys of experiment class `cls`: its fields, but one marked as no key."""
    return {f.name: f for f in fields(cls) if f.metadata.get("key", True)}


def parse_n_grid(text: str) -> tuple[int, ...]:
    """Either 'start:stop:step' (inclusive stop), of at most MAX_TRIALS
    entries, counted before any is made, or a comma list."""
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(int(part) for part in text.split(","))
        start, stop, step = (int(part) for part in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError
    except ValueError:
        raise ConfigError(f"cannot parse n_grid value {text!r}") from None
    grid = range(start, stop + 1, step)
    if len(grid) > MAX_TRIALS:
        raise ConfigError(f"n_grid {text!r} has {len(grid)} entries, more than "
                          f"MAX_TRIALS = {MAX_TRIALS}")
    return tuple(grid)


def _convert(key: Field, raw: str):
    if key.name == "n_grid":
        return parse_n_grid(raw)
    try:
        return key.type(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key.name!r}") from None


def parse_config(text: str, overrides: dict[str, str] | None = None) -> Experiment:
    """The config of `text`; each `key: raw` pair of `overrides` sets its key
    as a line of `text` would, in place of any value the text gives it."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}")
        pairs[key] = raw
    pairs.update(overrides or {})

    if "experiment" not in pairs:
        raise ConfigError("missing required key 'experiment'")
    name = pairs.pop("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; have {tuple(EXPERIMENTS)}")
    keys = config_keys(EXPERIMENTS[name])
    values = {}
    for key, raw in pairs.items():
        if key not in keys:
            raise ConfigError(f"key {key!r} does not belong to experiment {name!r}, "
                              f"whose keys are {list(keys)}")
        values[key] = _convert(keys[key], raw)
    missing = [key for key, f in keys.items() if f.default is MISSING and key not in values]
    if missing:
        raise ConfigError(f"experiment {name!r} is missing keys {missing}")
    config = EXPERIMENTS[name](**values)
    validate_config(config)
    return config


def _n_grid_complaint(grid):
    if not grid:
        # a sweep over no n would write a table of its header alone
        return "n_grid must have at least one entry, got ()"
    if any(n < 1 for n in grid):
        return f"n_grid entries must be >= 1, got {grid}"
    if len(set(grid)) < len(grid):
        # a repeated n would rerun the identical row on the identical seed
        return f"n_grid entries must be distinct, got {grid}"


def _is_bandwidth(text):
    try:
        return text == "silverman" or 0.0 < float(text) < math.inf
    except ValueError:
        return False


# key -> its range rule: the complaint about a bad value, else false
_RULES = {
    "n": lambda n: n < 1 and f"n must be >= 1, got {n}",
    "n_grid": _n_grid_complaint,
    "burn_in": lambda b: b < 0 and f"burn_in must be >= 0, got {b}",
    "bandwidth": lambda b: not _is_bandwidth(b) and (
        f"bandwidth must be 'silverman' or a number, finite and > 0, got {b!r}"),
    "kernel": lambda k: k.lower() not in KERNELS and (
        f"unknown kernel {k!r}; have {sorted(KERNELS)}"),
    "gamma": lambda g: not 0.0 < g < 1.0 and f"gamma must lie in (0, 1), got {g}",
    "mu": lambda mu: not math.isfinite(mu) and f"mu must be finite, got {mu}",
    "sigma2": lambda s: not 0.0 < s < math.inf and (
        f"sigma2 must be a finite number > 0, got {s}"),
    "p": lambda p: not 1.0 <= p < math.inf and f"p must be >= 1 and finite, got {p}",
    "bins_constant": lambda c: not (math.isfinite(c) and c > 0.0) and (
        f"bins_constant must be a finite number > 0, got {c}"),
    "m": lambda m: not 1 <= m <= MAX_BINS and (
        f"m must be >= 1 and <= MAX_BINS = {MAX_BINS}, got {m}"),
    "grid_points": lambda g: not 2 <= g <= MAX_GRID_POINTS and (
        f"grid_points must be >= 2 and <= MAX_GRID_POINTS = {MAX_GRID_POINTS}, got {g}"),
    "trials": lambda t: t < 1 and f"trials must be >= 1, got {t}",
    "threads": lambda t: not 1 <= t <= MAX_WORKERS and (
        f"threads must be >= 1 and <= MAX_WORKERS = {MAX_WORKERS}, got {t}"),
    "k_max": lambda k: not 1 <= k <= MAX_CLOSED_K and (
        f"k_max must be >= 1 and <= {MAX_CLOSED_K}, got {k}"),
    "master_seed": lambda s: not 0 <= s < 2**64 and (
        f"master_seed must be an unsigned 64-bit integer, got {s}"),
}


def validate_config(config: Experiment) -> None:
    """Raise ConfigError unless every value of `config` passes its key's
    range rule, a key is None only where its default is (`m`), a run takes
    at most MAX_STEPS steps and a sweep at most MAX_TRIALS trials (and a
    slope plot's n_grid has the 3 entries a slope needs)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            if f.default is not None:
                raise ConfigError(f"key {f.name!r} must have a value, got None")
        elif complaint := _RULES[f.name](value):
            raise ConfigError(complaint)
    if isinstance(config, RiskTableSweep):
        if len(config.n_grid) * config.trials > MAX_TRIALS:
            raise ConfigError(f"len(n_grid) x trials must be <= MAX_TRIALS = {MAX_TRIALS}, "
                              f"got {len(config.n_grid)} x {config.trials}")
        longest = max(config.n_grid)
    else:
        longest = config.n   # None for the coefficient report, which draws no sample
    if longest is not None and longest + config.burn_in > MAX_STEPS:
        raise ConfigError(f"n + burn_in must be <= MAX_STEPS = {MAX_STEPS}, "
                          f"got n = {longest}, burn_in = {config.burn_in}")
    if isinstance(config, RiskSlopePlot) and len(config.n_grid) < 3:
        raise ConfigError("risk-slope-plot fits a slope to at least 3 n_grid "
                          f"entries, got {len(config.n_grid)}")


def load_config(path, overrides: dict[str, str] | None = None) -> Experiment:
    return parse_config(Path(path).read_text(encoding="utf-8"), overrides)


def serialize_config(config: Experiment) -> str:
    """Canonical, re-parseable text form."""
    lines = [f"experiment = {config.experiment}"]
    for key in config_keys(type(config)):
        value = getattr(config, key)
        if value is None:
            continue
        if key == "n_grid":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
