"""`estimators` and `risk` never read a process kind, and `runner` never
builds a marginal density.

`processes.bin_counts` counts the histogram of every process kind, and the
estimators take observations or bin counts, so neither module needs
`ProcessKind` or a `.kind` attribute; `ProcessSpec.marginal` gives every
reference the runner needs.  The checks read each file's syntax tree, so
docstrings may still speak of kinds and densities.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "betadens"
NAMES = {"ProcessKind"}


@pytest.mark.parametrize("module", ["estimators.py", "risk.py"])
def test_module_reads_no_process_kind(module):
    found = []
    for node in ast.walk(ast.parse((SRC / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id in NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in NAMES:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Attribute) and node.attr in NAMES | {"kind"}:
            found.append(f".{node.attr} on line {node.lineno}")
    assert not found, f"{module} reads a process kind: {found}"


MARGINAL_CONSTRUCTORS = {"two_level", "gaussian", "step_density", "uniform01",
                         "ReferenceDensity"}


def test_runner_builds_no_marginal():
    # every reference the runner compares with is its spec's `marginal`, the
    # one place where a process kind decides its density
    found = []
    for node in ast.walk(ast.parse((SRC / "runner.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in MARGINAL_CONSTRUCTORS:
                found.append(f"{name}() on line {node.lineno}")
        elif isinstance(node, ast.alias) and node.name in MARGINAL_CONSTRUCTORS:
            found.append(f"import {node.name}")
    assert not found, f"runner.py builds a marginal: {found}"
