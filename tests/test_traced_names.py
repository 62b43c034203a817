"""Every function that the traced benchmark wraps by name exists in betadens.

`perfbench/spans.py` patches its TARGETS and COUNTED by (module, attribute);
a rename here would otherwise surface only in a traced benchmark run.  The
tables are read from the file's syntax tree, so nothing under perfbench/ is
imported or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names():
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TARGETS", "COUNTED"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(tables) == {"TARGETS", "COUNTED"}
    return tables["TARGETS"] + tables["COUNTED"]


@pytest.mark.parametrize("module, attr, span", _traced_names())
def test_traced_name_resolves(module, attr, span):
    obj = importlib.import_module(f"betadens.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
