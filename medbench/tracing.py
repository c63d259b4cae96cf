"""Spans and call counters installed around the harness's public functions.

Nothing under `src/` knows about tracing: `install` replaces functions and
methods on the loaded `medharness` modules with timing wrappers and returns
an undo callable. A module-level function is replaced in every `medharness`
module that imported it by name, so `from .parsing import extract_answer`
call sites are traced too.

A span records its name, start, end, parent span and the test item it
belongs to. The item comes from the wrapped call's arguments (a test-split
`McqItem`, or a `NeighborSet`'s query) and is otherwise inherited from the
parent span. Spans opened on a worker thread with no open span of their own
take the innermost open span of the main thread as parent: the runner's
thread pool is the only place the harness starts threads, and its caller
blocks inside `run_benchmark` until they finish.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
import time
from collections import Counter

from medharness.corpus import McqItem, Split
from medharness.retrieval import NeighborSet
from medharness.runner import LADDER

# (module, attribute path, span name). Module paths are relative to medharness.
TRACED = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("corpus", "read_normalized", "corpus.load"),
    ("retrieval", "build_index", "retrieval.build_index"),
    ("retrieval", "VectorIndex.nearest", "retrieval.nearest"),
    ("retrieval", "VectorIndex.rank_all", "retrieval.rank_all"),
    ("retrieval", "VectorIndex.load", "retrieval.index_load"),
    ("retrieval", "VectorIndex.save", "retrieval.index_save"),
    ("teacher", "build_exemplars", "teacher.build_exemplars"),
    ("teacher", "build_random_exemplars", "teacher.build_exemplars"),
    ("teacher", "CotCache.get", "teacher.cache_get"),
    ("teacher", "CotCache.put", "teacher.cache_put"),
    ("teacher", "generate_cot", "teacher.generate_cot"),
    ("promptkit", "assemble_prompt", "promptkit.assemble_prompt"),
    ("promptkit", "shuffle_options", "promptkit.shuffle_options"),
    ("parsing", "extract_answer", "parsing.extract_answer"),
    ("modelgw", "HttpEndpoint.complete", "modelgw.complete"),
    ("modelgw", "MockEndpoint.complete", "modelgw.complete"),
    ("runner", "run_benchmark", "runner.run_benchmark"),
    ("runner", "answer_item", "runner.answer_item"),
    ("metrics", "build_report", "metrics.build_report"),
)


def _item_of(args, kwargs) -> str | None:
    for value in (*args, *kwargs.values()):
        if isinstance(value, McqItem) and value.split is Split.TEST:
            return value.id
        if isinstance(value, NeighborSet):
            return value.query_id
    return None


def _extra(name: str, args, kwargs, result) -> dict:
    """Per-span facts the per-layer ratios need."""
    if name == "teacher.cache_get":
        return {"hit": result is not None}
    if name == "teacher.generate_cot":
        return {"accepted": result.accepted}
    if name == "runner.run_benchmark":
        return {"stage": (args[1] if len(args) > 1 else kwargs["stage"]).value}
    if name == "modelgw.complete":
        extra = {"model": args[0].model_id, "retries": result.retries}
        if "server_handle_ms" in result.usage:
            extra["server_ms"] = result.usage["server_handle_ms"]
        return extra
    return {}


def _patch(target, attr: str, make_wrapper) -> callable:
    """Replace target.attr (function, method or classmethod); return the undo."""
    raw = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
    if isinstance(raw, classmethod):
        wrapped = classmethod(make_wrapper(raw.__func__))
    else:
        wrapped = make_wrapper(raw)
    setattr(target, attr, wrapped)
    return lambda: setattr(target, attr, raw)


def _install(targets, make_wrapper) -> callable:
    """Wrap each (module, attribute path) in `targets`; return one undo callable."""
    undo = []
    for module_name, path, name in targets:
        module = importlib.import_module(f"medharness.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            undo.append(_patch(getattr(module, cls_name), attr,
                               lambda fn, name=name: make_wrapper(fn, name)))
            continue
        original = getattr(module, path)
        wrapper = make_wrapper(original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.split(".")[0] != "medharness" or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    undo.append(lambda m=loaded, a=attr, o=original: setattr(m, a, o))
    return lambda: [fn() for fn in reversed(undo)]


class CallCounter:
    """Counts endpoint calls per model id; cheap enough to stay on while timing."""

    def __init__(self):
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def install(self) -> callable:
        targets = [t for t in TRACED if t[2] == "modelgw.complete"]

        def make_wrapper(fn, name):
            def counted(endpoint, request):
                with self._lock:
                    self.calls[endpoint.model_id] += 1
                return fn(endpoint, request)
            return counted

        return _install(targets, make_wrapper)

    def take(self) -> dict:
        with self._lock:
            calls, self.calls = dict(self.calls), Counter()
        return calls


class Tracer:
    """In-memory span recorder; `write` dumps the spans as JSON lines."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[dict]] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list[dict]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self) -> dict | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def install(self) -> callable:
        def make_wrapper(fn, name):
            def traced(*args, **kwargs):
                parent = self._parent()
                item = _item_of(args, kwargs) or (parent["item"] if parent else None)
                with self._lock:
                    span = {"id": f"{self.prefix}{len(self.spans)}", "name": name, "item": item,
                            "parent": parent["id"] if parent else None}
                    self.spans.append(span)
                stack = self._stack()
                stack.append(span)
                span["start"] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    span.update(_extra(name, args, kwargs, result))
                    return result
                except Exception as exc:
                    span["error"] = type(exc).__name__
                    raise
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
            return traced

        return _install(TRACED, make_wrapper)

    def mark(self) -> int:
        """Index of the next span, to cut the span list into iterations."""
        with self._lock:
            return len(self.spans)

    def write(self, path, mode: str = "w") -> None:
        """Write the spans to `path`; mode "a" appends them to what is there."""
        with open(path, mode, encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def _self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start, end = max(child["start"], cursor), min(child["end"], span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return (span["end"] - span["start"]) - covered


def _p(values: list[float], q: int) -> float:
    """q-th percentile (nearest rank) of `values`, 0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def layer_metrics(spans: list[dict], target_model: str) -> dict[str, float]:
    """Per-layer counts, times and ratios over one pass of a workload.

    `modelgw.*` covers the target model's calls only; teacher calls show as
    `teacher.generate_cot.calls`.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def calls(name):
        return len(by_name.get(name, []))

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, []))

    def ms(name):
        return [(s["end"] - s["start"]) * 1e3 for s in by_name.get(name, [])]

    gets = by_name.get("teacher.cache_get", [])
    cots = by_name.get("teacher.generate_cot", [])
    completes = [s for s in by_name.get("modelgw.complete", []) if s.get("model") == target_model]
    latency = [(s["end"] - s["start"]) * 1e3 for s in completes]
    overhead = [(s["end"] - s["start"]) * 1e3 - s["server_ms"]
                for s in completes if "server_ms" in s]
    runs = by_name.get("runner.run_benchmark", [])
    out = {
        "cli.main.s": seconds("cli.main"),
        "config.load_config.calls": calls("config.load_config"),
        "corpus.load.calls": calls("corpus.load"),
        "corpus.load.s": seconds("corpus.load"),
        "retrieval.nearest.calls": calls("retrieval.nearest"),
        "retrieval.nearest.ms_p50": _p(ms("retrieval.nearest"), 50),
        "retrieval.rank_all.calls": calls("retrieval.rank_all"),
        "retrieval.rank_all.s": seconds("retrieval.rank_all"),
        "retrieval.index_load.s": seconds("retrieval.index_load"),
        "retrieval.build_index.s": seconds("retrieval.build_index"),
        "retrieval.index_save.s": seconds("retrieval.index_save"),
        "teacher.cache_get.calls": len(gets),
        "teacher.cache_get.s": seconds("teacher.cache_get"),
        "teacher.cache_hit_ratio": (sum(s.get("hit", False) for s in gets) / len(gets)
                                    if gets else 0.0),
        "teacher.cache_put.calls": calls("teacher.cache_put"),
        "teacher.generate_cot.calls": len(cots),
        "teacher.accept_ratio": (sum(s.get("accepted", False) for s in cots) / len(cots)
                                 if cots else 0.0),
        "promptkit.assemble_prompt.calls": calls("promptkit.assemble_prompt"),
        "promptkit.assemble_prompt.s": seconds("promptkit.assemble_prompt"),
        "promptkit.shuffle_options.calls": calls("promptkit.shuffle_options"),
        "parsing.extract_answer.calls": calls("parsing.extract_answer"),
        "parsing.extract_answer.s": seconds("parsing.extract_answer"),
        "modelgw.complete.calls": len(completes),
        "modelgw.complete.ms_p50": _p(latency, 50),
        "modelgw.complete.ms_p99": _p(latency, 99),
        "modelgw.overhead_ms_p50": _p(overhead, 50),
        "modelgw.retries": sum(s.get("retries", 0) for s in completes),
        "modelgw.transport_errors": sum(1 for s in completes if "error" in s),
        "runner.self_s": sum(_self_time(s, children.get(s["id"], [])) for s in runs),
        "metrics.build_report.s": seconds("metrics.build_report"),
    }
    for stage in LADDER:
        out[f"runner.run_benchmark.{stage.value}.s"] = sum(
            s["end"] - s["start"] for s in runs if s.get("stage") == stage.value)
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several passes of the same workload."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
