"""The benchmark's workloads import gridcycle names that must keep existing.

``perfbench/workloads.py`` is parsed, never imported or run: every name it
imports from ``gridcycle`` or one of its modules must resolve, so removing a
public name fails here before it breaks the benchmark.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def gridcycle_imports():
    """(module, name) for every ``from gridcycle... import name`` in the
    workloads file."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "gridcycle"
            for alias in node.names]


def test_workloads_import_only_existing_names():
    names = gridcycle_imports()
    assert ("gridcycle", "find_long_edge") in names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing
