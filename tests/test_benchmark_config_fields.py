"""Every config field that the benchmark reads or sets exists on ExperimentConfig.

`perfbench/workloads.py` reads fields off the configs it loads (`cfg.n`,
`self.config.master_seed`, ...) and sets others through `replace(...)`;
`perfbench/spans.py` reads them off the config that `run_experiment` gets
(`args[0]`).  Dropping or renaming such a field would otherwise surface only
in a benchmark run.  The files are read from their syntax trees, so nothing
under perfbench/ is imported or written.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from betadens.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIELDS = {f.name for f in fields(ExperimentConfig)}


def _is_config(node) -> bool:
    """`cfg`, `self.config` or `args[0]`."""
    if isinstance(node, ast.Name):
        return node.id == "cfg"
    if isinstance(node, ast.Attribute):
        return (node.attr == "config" and isinstance(node.value, ast.Name)
                and node.value.id == "self")
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)
            and node.slice.value == 0)


def _config_names(filename):
    names = set()
    for node in ast.walk(ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and _is_config(node.value):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "replace"):
            names.update(kw.arg for kw in node.keywords)
    return names


@pytest.mark.parametrize("filename, seen", [
    ("workloads.py", {"master_seed", "threads", "trials", "n_grid", "n"}),
    ("spans.py", {"experiment", "master_seed"})])
def test_benchmark_config_names_are_fields(filename, seen):
    names = _config_names(filename)
    # the collector still finds the reads it was written for
    assert seen <= names
    assert sorted(names - FIELDS) == []
