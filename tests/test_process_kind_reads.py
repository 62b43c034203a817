"""`estimators` and `risk` never read a process kind.

`processes.bin_counts` counts the histogram of every process kind, and the
estimators take observations or bin counts, so neither module needs
`ProcessKind`, `REGISTER_KINDS` or a `.kind` attribute.  The check reads
each file's syntax tree, so docstrings may still speak of kinds.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "betadens"
NAMES = {"ProcessKind", "REGISTER_KINDS"}


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
