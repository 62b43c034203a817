"""Every shipped config that the benchmark loads has what its workload uses.

`perfbench/catalog.py` lists the configs each workload loads.
`perfbench/workloads.py` reads attributes off them (`cfg.n`, `self.config.p`,
...), assigns some, and reseeds them through `replace(...)`;
`perfbench/spans.py` reads `experiment` and `master_seed` off every config
that `run_experiment` gets (`args[0]`).  Each config is loaded and checked
against the names its own workload uses, so that dropping one from a config
class fails here, not in a benchmark run.  The perfbench files are read from
their syntax trees, so nothing under perfbench/ is imported or written.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from betadens.config import load_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tree(filename):
    return ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))


def _catalog():
    """catalog.CONFIGS: workload name -> the config files it loads."""
    for node in _tree("catalog.py").body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CONFIGS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/catalog.py defines no CONFIGS")


def _is_config(node) -> bool:
    """`cfg`, `self.config` or `args[0]`."""
    return ast.unparse(node) in ("cfg", "self.config", "args[0]")


def _config_names(roots):
    """(attributes read, attributes assigned, keywords of `replace` calls)
    on configs anywhere under the nodes `roots`."""
    read, assigned, replaced = set(), set(), set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and _is_config(node.value):
                (assigned if isinstance(node.ctx, ast.Store) else read).add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "replace"):
                replaced.update(kw.arg for kw in node.keywords)
    return read, assigned, replaced


def _workload_code():
    """Workload name -> its class in workloads.py and the module functions
    that the class calls."""
    tree = _tree("workloads.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    code = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets[0]) == "name"
                    and stmt.value.value):
                called = {n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and n.id in functions}
                code[stmt.value.value] = [node, *(functions[name] for name in called)]
    return code


CONFIGS = _catalog()
WORKLOAD_CODE = _workload_code()


@pytest.mark.parametrize("filename, seen", [
    ("workloads.py", {"master_seed", "threads", "trials", "n_grid", "n", "p"}),
    ("spans.py", {"experiment", "master_seed"})])
def test_collector_finds_the_reads_it_was_written_for(filename, seen):
    assert seen <= set().union(*_config_names([_tree(filename)]))


def test_every_workload_has_its_code_and_configs():
    assert sorted(WORKLOAD_CODE) == sorted(CONFIGS)
    read, assigned, replaced = _config_names(WORKLOAD_CODE["figures"])
    # the figure clients reseed in a module function, which is followed
    assert "n" in read and "n" in assigned and replaced == {"master_seed"}


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_each_shipped_config_has_what_its_workload_uses(workload):
    read, assigned, replaced = _config_names(WORKLOAD_CODE[workload])
    read |= _config_names([_tree("spans.py")])[0]
    for name in CONFIGS[workload]:
        config = load_config(ROOT / "configs" / name)
        assert sorted(a for a in read | assigned if not hasattr(config, a)) == [], name
        # each name that replace() sets is a constructor field; each one
        # assigned can be set on the config
        again = replace(config, **{key: getattr(config, key) for key in replaced})
        for key in assigned:
            setattr(again, key, getattr(config, key))
        assert again == config, name
