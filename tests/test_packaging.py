"""The dependencies `pyproject.toml` declares are the ones the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
# Distribution name of each import name that differs from it.
DISTRIBUTION = {"yaml": "pyyaml"}


def third_party_imports() -> set[str]:
    """Top-level names of every non-stdlib module `src/medharness/` imports."""
    names = set()
    for path in (ROOT / "src" / "medharness").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "medharness"}


def test_declared_dependencies_are_the_imported_ones():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                for spec in project["dependencies"]}
    imported = {DISTRIBUTION.get(name, name) for name in third_party_imports()}
    assert imported == declared
