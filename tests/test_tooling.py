"""Guards keeping the benchmark's tracer, the README and the public names in
step with the package."""

import ast
import importlib
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import yaml

from medharness import modelgw
from medharness.cli import cli, main
from medharness.config import RunConfig, load_config
from medharness.corpus import read_headed

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "medbench" / "tracing.py"
README = ROOT / "README.md"
PROGRAM_DIRS = ("src", "medbench", "scripts")
# Public names that only the acceptance suite calls. The suite stays
# unchanged, so these keep no caller in the program.
ACCEPTANCE_ONLY = {"modelgw.mock_model"}
# Defaulted parameters that only the acceptance suite passes.
ACCEPTANCE_ONLY_PARAMETERS = {"promptkit.assemble_prompt.run_index"}


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


def readme_section(title: str) -> str:
    """The README's `## title` section, up to the next `## ` heading."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_exactly_the_cli_options():
    """Every `--flag` the README's Data and Running sections name is an option
    of some command, and every command option is named there: a removed
    option left in the docs, or a new one left out of them, fails."""
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                           readme_section("Data") + readme_section("Running")))
    options = {opt for command in cli.commands.values() for param in command.params
               for opt in param.opts if opt.startswith("--")}
    assert named == options


def test_readme_names_the_exemplar_manifest_layout(tmp_path):
    """The README's data layout line for the exemplar manifest names the
    schema `gen-cot` writes and exactly the keys of its rows: a schema bump
    or a renamed key left out of the docs fails."""
    from test_cli import build_env

    config, _, _ = build_env(tmp_path, n_test=1, n_pool=5)
    assert main(["gen-cot", "--config", str(config), "--dataset", "medqa"]) == 0
    header, rows = read_headed(tmp_path / "cache" / "exemplars" / "medqa.jsonl")
    [line] = [line for line in README.read_text(encoding="utf-8").splitlines()
              if line.startswith("cache/exemplars/medqa.jsonl")]
    assert f"(schema {header['schema']})" in line
    assert re.findall(r'"(\w+)"', line) == list(rows[0])


def test_readme_names_exactly_the_mock_policies():
    """The README's Mock endpoints table lists every `mock:` policy name and
    no other: a removed policy left in the docs, or a new one left out of
    them, fails."""
    named = set(re.findall(r"^\| `(\w+)` \|", readme_section("Mock endpoints"), re.M))
    assert named == set(modelgw._POLICY_REGISTRY)


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


def program_trees():
    for directory in PROGRAM_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            yield ast.parse(path.read_text(encoding="utf-8"))


def defaulted_parameters():
    """(qualified name, name a call uses, {parameter: position or None}) for
    each module-level function and method in the package that has defaulted
    parameters. A constructor is called by its class name; a method's
    position does not count `self` or `cls`. Keyword-only parameters have no
    position."""
    for path in (ROOT / "src" / "medharness").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, node) for node in tree.body]
        scopes += [(node.name, child) for node in tree.body if isinstance(node, ast.ClassDef)
                   for child in node.body]
        for owner, node in scopes:
            if not isinstance(node, ast.FunctionDef):
                continue
            positional = node.args.posonlyargs + node.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            if owner is not None and not static:
                positional = positional[1:]
            first_defaulted = len(positional) - len(node.args.defaults)
            params = {arg.arg: i for i, arg in enumerate(positional) if i >= first_defaulted}
            params.update({arg.arg: None for arg, default in
                           zip(node.args.kwonlyargs, node.args.kw_defaults) if default})
            if params:
                called_as = owner if node.name == "__init__" else node.name
                qualified = ".".join(filter(None, (path.stem, owner, node.name)))
                yield qualified, called_as, params


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter is passed, by keyword or by position, by some
    call in the program; one that no call sets is a constant or a required
    argument. Calls are matched by name alone, `partial(f, ...)` counts as a
    call of `f`, and a `**mapping` splat may pass any keyword, so it counts
    as passing them all."""
    passed: dict[str, set] = {}
    for tree in program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", None) == "partial" and args:
                func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
            passed.setdefault(name, set()).update(
                range(len(args)), (keyword.arg or "**" for keyword in node.keywords))
    unpassed = set()
    for qualified, called_as, params in defaulted_parameters():
        args = passed.get(called_as, set())
        if "**" not in args:
            unpassed.update(f"{qualified}.{param}" for param, position in params.items()
                            if param not in args and position not in args)
    assert unpassed == ACCEPTANCE_ONLY_PARAMETERS


def test_whole_files_are_written_only_in_corpus():
    """Outside `corpus.py` the package writes a whole file only through
    `corpus.write_atomically`, `write_headed` or `replace_atomically`, so each
    one is committed by a rename: no `write_text`, no `write_bytes`, and no
    `open` or `fdopen` in a `w` or `x` mode. Appending stays allowed."""
    found = []
    for path in (ROOT / "src" / "medharness").glob("*.py"):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            writes = name in ("open", "fdopen") and any(
                not isinstance(mode, ast.Constant) or set("wx") & set(str(mode.value))
                for mode in modes)
            if name in ("write_text", "write_bytes") or writes:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_files_are_appended_and_cut_only_in_corpus():
    """Outside `corpus.py` the package appends to a file only through
    `corpus.AppendLog`, the one place that knows how a torn last row is read
    and mended: no `open`, `fdopen` or `Path.open` in an append or update
    mode (`a`, `+`), or in a mode that is not a literal, and no `truncate`."""
    found = []
    for path in (ROOT / "src" / "medharness").glob("*.py"):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            # `open(file, mode)`, `os.fdopen(fd, mode)` and `io.open(...)`; `path.open(mode)`.
            method = (isinstance(node.func, ast.Attribute)
                      and getattr(node.func.value, "id", None) not in ("os", "io"))
            modes = (node.args[:1] if method else node.args[1:2]) + [
                kw.value for kw in node.keywords if kw.arg == "mode"]
            appends = name in ("open", "fdopen") and any(
                not isinstance(mode, ast.Constant) or set("a+") & set(str(mode.value))
                for mode in modes)
            if name == "truncate" or appends:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# Process-wide memos the package keeps on purpose, each counted once per
# use: answer-extraction patterns compiled once per label set, and the
# package's own default instructions. Neither depends on a command's inputs.
PROCESS_MEMOS = Counter({"parsing.py lru_cache": 1, "config.py global _DEFAULT_INSTRUCTIONS": 1})


def test_no_process_wide_memo():
    """The package memoises work on the objects a command creates, so a new
    command renders and parses anew: no `functools.cache` or `lru_cache`, no
    `global` rebinding and no write into a module-level container beyond
    `PROCESS_MEMOS`. Each use counts, so a second `lru_cache` in a module
    that already has one is found."""
    mutators = {"setdefault", "update", "append", "add", "extend", "insert", "__setitem__"}
    found = Counter()
    for path in (ROOT / "src" / "medharness").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names = {target.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign)
                                       else [node.target])
                        if isinstance(target, ast.Name)}
        # Local name -> functools name, for `from functools import lru_cache [as x]`.
        memo_names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "functools"
                      for alias in node.names if alias.name in ("cache", "lru_cache")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in memo_names:
                found[f"{path.name} {memo_names[node.id]}"] += 1
            elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                  and getattr(node.value, "id", None) == "functools"):
                found[f"{path.name} {node.attr}"] += 1
            elif isinstance(node, ast.Global):
                found.update(f"{path.name} global {name}" for name in node.names)
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) in module_names):
                found[f"{path.name} writes {node.value.id}"] += 1
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in mutators
                  and getattr(node.func.value, "id", None) in module_names):
                found[f"{path.name} writes {node.func.value.id}"] += 1
    assert found == PROCESS_MEMOS


# Callables that start a thread or a process when constructed or called.
THREAD_MAKERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process",
                 "start_new_thread"}


def test_threads_start_in_one_place():
    """The package starts threads in one place, the item pool of
    `runner.run_benchmark`, as `medbench/tracing.py` assumes when it parents
    a worker's spans to the main thread's open span."""
    found = []
    for path in sorted((ROOT / "src" / "medharness").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in THREAD_MAKERS:
                    found.append(f"{path.name} {getattr(top, 'name', '<module>')} {name}")
    assert found == ["runner.py run_benchmark ThreadPoolExecutor"]


def test_endpoints_are_built_in_one_place():
    """Within the package only `config.build_endpoint` constructs an endpoint
    from a config block, so one function decides what building one checks
    and nothing else decides when an endpoint acquires anything."""
    found = []
    for path in sorted((ROOT / "src" / "medharness").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("HttpEndpoint", "mock_from_file"):
                    found.append(f"{path.name} {getattr(top, 'name', '<module>')} {name}")
    assert sorted(found) == ["config.py build_endpoint HttpEndpoint",
                             "config.py build_endpoint mock_from_file"]


def test_only_the_gateway_and_config_name_the_http_transport():
    """Within the package only `modelgw.py`, which defines `HttpEndpoint`, and
    `config.py`, which builds it, name it: no other module treats an
    endpoint differently by its transport."""
    found = sorted(path.name for path in (ROOT / "src" / "medharness").glob("*.py")
                   if "HttpEndpoint" in path.read_text(encoding="utf-8"))
    assert found == ["config.py", "modelgw.py"]


def test_teacher_fingerprint_is_computed_in_one_place():
    """Within the package only `teacher.py` calls `teacher_fingerprint`: a
    `CotCache` fixes its teacher's fingerprint when a command builds it, and
    the exemplar manifest's header takes it from there."""
    found = []
    for path in sorted((ROOT / "src" / "medharness").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "teacher_fingerprint":
                    found.append(f"{path.name} {getattr(top, 'name', '<module>')} {name}")
    assert found == ["teacher.py CotCache teacher_fingerprint"]


def test_prompts_are_built_in_one_place():
    """No program module but `promptkit.py` renders or calls for an exemplar's
    block: `assemble_prompt` is the one prompt builder, and the runner, the
    commands, the benchmark and the scripts reach prompts only through it."""
    found = []
    paths = [*(ROOT / "src" / "medharness").glob("*.py"), *(ROOT / "medbench").glob("*.py"),
             *(ROOT / "scripts").glob("*.py")]
    for path in sorted(paths):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("block", "_exemplar_block"):
                    found.append(f"{path.name} {getattr(top, 'name', '<module>')} {name}")
    assert found == ["promptkit.py CotExemplar _exemplar_block",
                     "promptkit.py assemble_prompt block"]


def test_only_write_normalized_serializes_an_item():
    """Within the package only `corpus.write_normalized` calls
    `canonical_json`: the CoT cache digests the pool line it is given, so no
    other module knows how a normalized line is written."""
    found = []
    for path in sorted((ROOT / "src" / "medharness").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "canonical_json":
                    found.append(f"{path.name} {getattr(top, 'name', '<module>')} {name}")
    assert found == ["corpus.py write_normalized canonical_json"]


def test_cli_looks_up_the_cot_cache_in_one_place():
    """In `cli.py` only `_Sources.manifest_exemplars` calls the CoT cache's
    `get`: every exemplar the manifest lists resolves through it, and every
    other exemplar is verified through `teacher.py`."""
    found = []
    tree = ast.parse((ROOT / "src" / "medharness" / "cli.py").read_text(encoding="utf-8"))
    for top in tree.body:
        for inner in top.body if isinstance(top, ast.ClassDef) else [top]:
            for node in ast.walk(inner):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                receiver = node.func.value
                if node.func.attr == "get" and getattr(receiver, "attr",
                                                       getattr(receiver, "id", None)) == "cache":
                    found.append(f"{getattr(top, 'name', '<module>')}."
                                 f"{getattr(inner, 'name', '<body>')}")
    assert found == ["_Sources.manifest_exemplars"]
