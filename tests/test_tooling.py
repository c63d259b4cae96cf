"""Guards keeping the benchmark's tracer, the README and the public names in
step with the package."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import yaml

from medharness.config import RunConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "medbench" / "tracing.py"
README = ROOT / "README.md"
PROGRAM_DIRS = ("src", "medbench", "scripts")
# Public names that only the acceptance suite calls. The suite stays
# unchanged, so these keep no caller in the program.
ACCEPTANCE_ONLY = {"modelgw.mock_model"}


def traced_names() -> tuple:
    """`TRACED` from `medbench/tracing.py`, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]]
    return ast.literal_eval(table)


def public_names(path: Path) -> tuple:
    """A module's `__all__`, read from its source without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
                getattr(target, "id", None) for target in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return ()


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


def test_readme_config_example_sets_every_run_config_field(tmp_path):
    """The README's YAML example loads, and names every `RunConfig` field: a
    removed key left in the docs, or a new key left out of them, fails."""
    [example] = [block.split("\n", 1)[1]
                 for block in README.read_text(encoding="utf-8").split("```")[1::2]
                 if block.startswith("yaml\n")]
    config = tmp_path / "run.yaml"
    config.write_text(example, encoding="utf-8")
    load_config(config)
    assert set(yaml.safe_load(example)) == {field.name for field in fields(RunConfig)}


def test_every_public_name_has_a_caller():
    """Each name in a module's `__all__` is read somewhere in the program, not
    only defined and listed; tests alone do not count as callers."""
    used = set()
    for directory in PROGRAM_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = {f"{path.stem}.{name}" for path in (ROOT / "src" / "medharness").glob("*.py")
              for name in public_names(path) if name not in used}
    assert unused == ACCEPTANCE_ONLY
