"""The benchmark's tracer names only functions the package still has."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "medbench" / "tracing.py"


def traced_names() -> tuple:
    """`TRACED` from `medbench/tracing.py`, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]]
    return ast.literal_eval(table)


def resolves(module_name: str, path: str) -> bool:
    target = importlib.import_module(f"medharness.{module_name}")
    for attr in path.split("."):
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return callable(target)


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = [f"{module}.{path}" for module, path, _ in names if not resolves(module, path)]
    assert missing == []
