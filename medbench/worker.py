"""Timed phase of one benchmark run, in a process that did no set-up work.

Usage: python3 medbench/worker.py SPEC_JSON RESULT_JSON

The spec names a prepared work directory and the `medharness.cli.main`
arguments of one pass. The worker repeats passes until `seconds` have gone
by: before each pass it removes the spec's `reset` paths (untimed), and after
it renames `out/` to `out.pass<N>/` for the correctness gate. With `trace`,
passes alternate untraced and traced, so the tracing overhead is measured in
the same process. The result records each pass's wall time, exit code and
endpoint calls per model, the server-log size after it, and the process's
peak RSS; the spans of traced passes are appended to `spans_path`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import medharness.cli  # noqa: E402

from tracing import CallCounter, Tracer  # noqa: E402


def reset(workdir: Path, names) -> None:
    """Remove the given paths under `workdir`, if they exist."""
    for name in names:
        shutil.rmtree(workdir / name, ignore_errors=True)


def run_passes(spec: dict) -> dict:
    workdir = Path(spec["workdir"])
    log = Path(spec["server_log"]) if spec.get("server_log") else None
    counter = CallCounter()
    counter.install()
    tracer = Tracer(prefix="w") if spec["trace"] else None
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        reset(workdir, spec["reset"])
        first_span = tracer.mark() if tracer else 0
        undo = tracer.install() if traced else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = medharness.cli.main(spec["argv"])
        finally:
            wall = time.perf_counter() - t0
            if undo:
                undo()
        out = workdir / f"out.pass{len(passes)}"
        if (workdir / "out").exists():
            os.replace(workdir / "out", out)
        passes.append({
            "wall_s": wall, "exit_code": code, "traced": traced, "out": str(out),
            "calls": counter.take(),
            "log_offset": log.stat().st_size if log and log.exists() else 0,
            "spans": [first_span, tracer.mark()] if traced else None,
        })
        elapsed = time.perf_counter() - started
        if elapsed >= spec["seconds"] and (tracer is None or len(passes) >= 2):
            break
    if tracer:
        tracer.write(spec["spans_path"], mode="a")
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run_passes(spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
