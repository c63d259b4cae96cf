"""medharness benchmark: one workload, set up, timed, gated, reported.

Usage, from the repository root:

    python3 medbench/run.py --workload {ladder_toy,knn_pool10k,ensemble_http} \
        --seed N --seconds S --trace {0,1}

The workload's inputs are made from the seed (and its stand-in server
started) once, untimed. The program's own set-up commands (`index`, and
`gen-cot` where the workload has it) then run at least SETUP_REPEATS times,
each from the same state; `setup_s` is the median wall time of a repeat. The
last set-up is timed by `worker.py`, a fresh process that repeats the
workload's CLI command for S seconds. Every pass is checked by the
workload's gate. If any pass's outputs are wrong, the run prints why on
stderr and exits 1 without a result line.

With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
traced passes (spans wrapped around each layer's public functions by
`tracing.py`) plus `trace.overhead_share`. Each run also writes its full
record, the environment included, and with `--trace 1` its spans, under
`.medbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".medbench"
# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S have gone
# by, so a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
RUN_LIMIT_S = 170.0


def _require_checkout() -> None:
    needed = [ROOT / "src/medharness/cli.py", ROOT / "tests/test_acceptance.py",
              ROOT / "tests/conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.exit(f"medbench: run from a medharness checkout; missing {', '.join(missing)}")


def speed_probe() -> float:
    """Seconds a fixed stdlib loop takes: shows how fast the machine ran."""
    started = time.perf_counter()
    total = 0
    for i in range(40_000):
        text = json.dumps({"id": i, "text": f"item {i} (B) beta"})
        total += len(hashlib.sha256(json.loads(text)["text"].encode()).hexdigest())
    return time.perf_counter() - started


def environment() -> dict:
    """What the numbers depend on besides the code: machine, libraries, load."""
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "loadavg_start": os.getloadavg(),
        "speed_probe_start_s": speed_probe(),
    }


def _cli(argv: list[str]) -> None:
    from medharness import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"medharness {argv[0]} exited {code}")


def _set_up(prepared, counter, tracer) -> tuple[list[float], dict]:
    """Repeat the program's set-up commands; keep the last, traced if a tracer is given.

    Returns the wall time of each repeat and the endpoint calls of the last.
    """
    from worker import reset

    walls = []
    while True:
        last = len(walls) + 1 >= SETUP_REPEATS and sum(walls) >= SETUP_MIN_S
        reset(prepared.workdir, prepared.setup_reset)
        counter.take()
        undo = tracer.install() if tracer is not None and last else None
        t0 = time.perf_counter()
        try:
            for argv in prepared.setup:
                _cli(argv)
        finally:
            walls.append(time.perf_counter() - t0)
            if undo:
                undo()
        if last:
            return walls, counter.take()


def _log_segments(prepared, start: int, passes: list[dict]) -> list[list[dict]]:
    """The server-log events of each pass, cut at the offsets the worker recorded."""
    if prepared.server_log is None:
        return [[] for _ in passes]
    data = prepared.server_log.read_bytes()
    segments = []
    for p in passes:
        chunk = data[start:p["log_offset"]].decode("utf-8")
        segments.append([json.loads(line) for line in chunk.splitlines() if line])
        start = p["log_offset"]
    return segments


def _models(prepared) -> tuple[str, str]:
    import yaml

    config = Path(prepared.argv[prepared.argv.index("--config") + 1])
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    return doc["target"]["model"], doc["teacher"]["model"]


def _run_worker(prepared, seconds: float, trace: bool, stem: Path, deadline: float) -> dict:
    """Time passes over `prepared` in a fresh process; return its result."""
    spec = {"workdir": str(prepared.workdir), "argv": prepared.argv,
            "reset": list(prepared.reset), "seconds": seconds, "trace": trace,
            "server_log": str(prepared.server_log) if prepared.server_log else None,
            "spans_path": f"{stem}.spans.jsonl"}
    spec_path = prepared.workdir / "worker_spec.json"
    result_path = prepared.workdir / "worker_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(f"{stem}.worker.log", "w", encoding="utf-8") as log:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, check=True,
            timeout=max(10.0, deadline - time.perf_counter()),
        )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _gate(workload, prepared, passes: list[dict], log_start: int) -> None:
    """Check every pass's outputs; a wrong pass counts all its results as failed."""
    for p, events in zip(passes, _log_segments(prepared, log_start, passes)):
        outcome = workload.gate(prepared, Path(p["out"]), events)
        if p["exit_code"] != 0 and outcome.ok:
            outcome.ok, outcome.reason = False, f"exit code {p['exit_code']}"
        if not outcome.ok:
            outcome.failed = outcome.attempted
        p["gate"] = vars(outcome)


def _scored(p: dict) -> int:
    return p["gate"]["attempted"] - p["gate"]["failed"]


def _end_to_end(workload, prepared, setup_walls, setup_calls, worker) -> tuple[dict, dict]:
    """(end-to-end metrics, context) from the untraced passes, all of which passed the gate.

    `items_per_s` is the scored results of those passes over their summed wall
    time; the calls per item are medians over the passes.
    """
    target_model, teacher_model = _models(prepared)
    timed = [p for p in worker["passes"] if not p["traced"]]

    def per_scored(value) -> float:
        return statistics.median(value(p) / _scored(p) for p in timed)

    failed_share = (sum(p["gate"]["failed"] for p in timed)
                    / sum(p["gate"]["attempted"] for p in timed))
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "items_per_s": sum(_scored(p) for p in timed) / sum(p["wall_s"] for p in timed),
        "target_calls_per_item": per_scored(lambda p: p["calls"].get(target_model, 0)),
        "teacher_calls_per_item": per_scored(
            lambda p: setup_calls.get(teacher_model, 0) + p["calls"].get(teacher_model, 0)),
        "peak_rss_mb": worker["peak_rss_mb"],
        "scored_share": 1.0 - failed_share,
    }
    context = {"failed_share": failed_share,
               "pass_wall_s_median": statistics.median(p["wall_s"] for p in timed)}
    if hasattr(workload, "floor_s"):
        context["latency_floor_s"] = workload.floor_s(
            statistics.median(p["calls"].get(target_model, 0) for p in timed))
    return metrics, context


def _per_layer(prepared, setup_spans, spans, passes) -> dict:
    """Metric-wise median, over traced passes, of set-up plus that pass's spans."""
    from tracing import layer_metrics, median_metrics

    target_model, _ = _models(prepared)
    per_pass = []
    for p in passes:
        if p["traced"]:
            m = layer_metrics(setup_spans + spans[p["spans"][0]:p["spans"][1]], target_model)
            m["runner.vote_split_share"] = p["gate"]["vote_split_share"]
            m["modelgw.connections_opened"] = p["gate"]["connections"]
            per_pass.append(m)
    metrics = median_metrics(per_pass)
    traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
    untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    metrics["trace.overhead_share"] = traced / untraced - 1.0
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """One benchmark run; returns the full record (see `report` for the line).

    The metrics are in the record only if every pass passed its gate and
    each untraced pass scored at least one result.
    """
    from tracing import CallCounter, Tracer
    from workloads import WORKLOADS

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment()
    workload = WORKLOADS[workload_name](seed, **sizes)
    workdir = STATE / "work" / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    stem = STATE / "results" / f"{workload_name}-seed{seed}-trace{int(trace)}"
    spans_path = Path(f"{stem}.spans.jsonl")
    counter = CallCounter()
    undo_counter = counter.install()
    setup_tracer = Tracer(prefix="s") if trace else None
    prepared = None
    try:
        prepared = workload.prepare(workdir)
        setup_walls, setup_calls = _set_up(prepared, counter, setup_tracer)
        if trace:
            setup_tracer.write(spans_path)
        log_start = prepared.server_log.stat().st_size if prepared.server_log else 0
        worker = _run_worker(prepared, seconds, trace, stem, deadline)
        _gate(workload, prepared, worker["passes"], log_start)
    finally:
        if prepared is not None:
            prepared.stop()
        undo_counter()
    env["loadavg_end"] = os.getloadavg()
    env["speed_probe_end_s"] = speed_probe()
    passes = worker["passes"]
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_walls_s": setup_walls, "passes": passes,
        "correct": all(p["gate"]["ok"] for p in passes)
        and all(_scored(p) for p in passes if not p["traced"]),
        "attempted": sum(p["gate"]["attempted"] for p in passes),
        "failed": sum(p["gate"]["failed"] for p in passes),
    }
    if record["correct"]:
        record["end_to_end"], record["context"] = _end_to_end(
            workload, prepared, setup_walls, setup_calls, worker)
        if trace:
            spans = [json.loads(line)
                     for line in spans_path.read_text(encoding="utf-8").splitlines()]
            n_setup = len(setup_tracer.spans)
            record["per_layer"] = _per_layer(prepared, spans[:n_setup], spans[n_setup:], passes)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def report(record: dict, units: dict[str, str]) -> dict:
    """The result line: end-to-end metrics untraced, per-layer metrics traced."""
    values = record.get("per_layer", {}) if record["trace"] else record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="medharness benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["ladder_toy", "knn_pool10k", "ensemble_http"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(f"medbench {args.workload} seed={args.seed} trace={args.trace} "
          f"correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    print(f"  env: commit={env['git_commit']} src={env['src_sha256'][:12]} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']['name']} "
          f"{env['blas']['version']} load={env['loadavg_start'][0]:.2f}->"
          f"{env['loadavg_end'][0]:.2f} speed_probe={env['speed_probe_start_s']:.3f}->"
          f"{env['speed_probe_end_s']:.3f}s")
    if not record["correct"]:
        for p in record["passes"]:
            if not p["gate"]["ok"]:
                print(f"medbench: gate failed: {p['gate']['reason']}", file=sys.stderr)
            elif not p["traced"] and not _scored(p):
                print("medbench: a timed pass scored no result", file=sys.stderr)
        return 1
    for name, value in record["context"].items():
        print(f"  context {name} = {value:.4f}")
    line = report(record, units)
    for name, metric in line["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
