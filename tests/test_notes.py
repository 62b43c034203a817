"""The scripts under notes/ run against the package as it is."""

import importlib.util
import math
from pathlib import Path

import betadens as bd

NOTES = Path(__file__).resolve().parent.parent / "notes"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, NOTES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion1_trial_values_run():
    protocols = _load("criterion1_protocols")
    n, m, seed = 2000, 12, 7
    values = protocols.trial_values(n, m, seed, bd.DEFAULT_BURN_IN)
    assert all(math.isfinite(v) for v in values.values()), values
    spec = bd.ProcessSpec(bd.ProcessKind.AR1_PIECEWISE, n=n, seed=seed)
    histogram = bd.histogram_estimate(bd.generate(spec), m)
    assert values["exact breaks (package)"] == bd.lp_distance(histogram, bd.two_level())
