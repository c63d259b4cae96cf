"""Benchmark execution: per-item generation loops, ensembles, and traces.

A stage names one rung of the prompting ladder, and `answer_stage_item` is
the one place that turns a stage into generation passes. Single-generation
stages ask the target model once per item at temperature 0. The ensemble
stage runs the strongest prompt up to five times at temperature 0.4, each run
presenting the test question's options in a different seeded order, and
stops as soon as the remaining runs could no longer change the vote. Its runs
go out in waves: a wave is the fewest next runs after which the vote could be
settled, so no stop can fall inside one. Against an HTTP endpoint at
concurrency above 1, a wave's runs overlap on one run pool that every open
item shares: B = concurrency * (runs // 2 + 1) callers, with up to B items
open at once, so more than `concurrency` items can be waiting on their
waves while the target still sees at most B calls in flight and the
teacher at most `concurrency`. Otherwise a wave's runs are made one by
one. Every pass re-asks up to a bounded number of tries when no answer can be
extracted, and the passes' decisions, mapped back to canonical labels, are
majority-voted.

An item's result is its trace row, a plain dict: `answer_item` returns one
pass's `per_run` entry, `answer_stage_item` the row that holds them, and
`run_benchmark` appends that row to a JSON-lines trace as soon as the item
finishes. The trace doubles as the checkpoint, so an interrupted run resumes
by skipping the item ids already present.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from .corpus import McqItem, mend_tail, scan_jsonl
from .errors import ConfigError, EndpointError
from .modelgw import GenerationRequest, HttpEndpoint, complete, default_max_tokens
from .parsing import INVALID, extract_answer
from .promptkit import (
    STOP_SEQUENCES,
    CotExemplar,
    Stage,
    assemble_prompt,
    extraction_tokens,
    identity_permutation,
    shuffle_options,
)

__all__ = [
    "Stage",
    "LADDER",
    "EnsembleConfig",
    "answer_item",
    "answer_stage_item",
    "aggregate_votes",
    "run_benchmark",
    "read_trace",
    "INVALID",
    "extract_answer",
]

MAX_VALIDITY_TRIES = 5
TRACE_SCHEMA = 1


LADDER: tuple[Stage, ...] = (
    Stage.ZERO_SHOT,
    Stage.RANDOM_FEWSHOT,
    Stage.RANDOM_FEWSHOT_COT,
    Stage.KNN_FEWSHOT_COT,
    Stage.ENSEMBLE,
)


@dataclass(frozen=True)
class EnsembleConfig:
    n_runs: int = 5
    temperature: float = 0.4

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError(f"ensemble needs at least one run, got {self.n_runs}")


def aggregate_votes(decisions: list[str]) -> tuple[str, bool]:
    """Majority vote over canonical decisions, ignoring invalid runs.

    Ties break toward the earliest run whose decision is among the tied
    labels. All runs invalid yields the invalid marker.
    """
    # A plain dict, not a Counter: every item of every stage votes, and a
    # single-run vote should cost little next to its one call.
    counts: dict[str, int] = {}
    for decision in decisions:
        if decision != INVALID:
            counts[decision] = counts.get(decision, 0) + 1
    if not counts:
        return INVALID, False
    top = max(counts.values())
    tied = {label for label, count in counts.items() if count == top}
    if len(tied) == 1:
        return next(iter(tied)), False
    for decision in decisions:
        if decision in tied:
            return decision, True
    raise AssertionError("unreachable: tied labels came from the decisions")


def answer_item(
    item: McqItem,
    stage: Stage,
    instruction: str,
    exemplars: list[CotExemplar],
    endpoint,
    temperature: float = 0.0,
    run_index: int = 0,
    shuffle: bool = False,
    seed: int = 0,
    max_tries: int = MAX_VALIDITY_TRIES,
) -> dict:
    """One generation pass: build the prompt, call the model, extract.

    The request carries `seed`, which with `shuffle` also orders the options.
    Retries generation up to `max_tries` when the output yields no parseable
    answer; transport failures count as tries. Returns the pass's `per_run`
    entry: `run_index`, the `permutation` (canonical -> presented label), the
    `presented` label extracted, the `decision` (that label mapped back
    through the permutation, or the invalid marker when no try gave a
    parseable answer), the last `raw_text`, `tries`, `transport_errors` and
    the prompt's `prompt_sha256`. When every try failed in transport the
    model never answered, so there is nothing to score: that raises the last
    `EndpointError`.
    """
    if shuffle:
        presented_item, permutation = shuffle_options(item, seed, run_index)
    else:
        presented_item, permutation = item, identity_permutation(item)
    bundle = assemble_prompt(stage, instruction, exemplars, presented_item,
                             permutation=permutation)
    labels, word_tokens = extraction_tokens(presented_item)
    to_canonical = {presented: canonical for canonical, presented in permutation.items()}
    # Only stages that show explanations size the token budget from them.
    request = GenerationRequest(
        model_id=endpoint.model_id,
        prompt=bundle.text,
        temperature=temperature,
        max_tokens=default_max_tokens(exemplars if stage.cot else []),
        stop_sequences=STOP_SEQUENCES,
        seed=seed,
    )

    tries = 0
    transport_errors = 0
    raw_text = ""
    presented_label = INVALID
    while tries < max_tries:
        tries += 1
        try:
            response = complete(request, endpoint)
        except EndpointError as exc:
            transport_errors += 1
            if transport_errors == max_tries:
                raise EndpointError(f"{item.id}: all {tries} tries failed: {exc}") from exc
            continue
        raw_text = response.text
        presented_label = extract_answer(raw_text, labels, word_tokens)
        if presented_label != INVALID:
            break
    return {
        "run_index": run_index,
        "permutation": permutation,
        "presented": presented_label,
        "decision": to_canonical[presented_label] if presented_label != INVALID else INVALID,
        "raw_text": raw_text,
        "tries": tries,
        "transport_errors": transport_errors,
        "prompt_sha256": hashlib.sha256(bundle.text.encode("utf-8")).hexdigest(),
    }


def answer_stage_item(
    item: McqItem,
    stage: Stage,
    instruction: str,
    exemplars: list[CotExemplar],
    endpoint,
    seed: int = 0,
    ensemble: EnsembleConfig = EnsembleConfig(),
    max_tries: int = MAX_VALIDITY_TRIES,
    run_pool: ThreadPoolExecutor | None = None,
) -> dict:
    """Answer one item as `stage` asks, vote, and return its trace row.

    The row holds `schema`, `item_id`, `gold`, the `stage` name, the voted
    `decision`, `correct`, `tie_broken`, `n_calls` (the tries of all runs)
    and `per_run`, the `answer_item` entries of the runs made.

    The ensemble runs up to `ensemble.n_runs` passes at
    `ensemble.temperature`, each over the options shuffled with `seed` and
    its run index. It stops once the leading label's count exceeds the
    runner-up's plus the runs left: no later run could change the decision
    or `tie_broken`, so the result equals the full vote and `per_run` lists
    only the runs made, in run-index order. The runs go out in waves of the
    fewest next runs after which the vote could be settled, even if all of
    them went to the leader; with 5 runs the first wave is 3. No stop can
    fall inside a wave, so the runs made are the ones a one-by-one vote
    makes. With `run_pool`, the pool makes a wave's runs at the same time
    while the caller waits for them; without it, a wave's runs are made in
    run-index order in the calling thread. Every other stage runs one greedy
    pass over the canonical order.
    """
    shuffle = stage is Stage.ENSEMBLE
    n_runs, temperature = (ensemble.n_runs, ensemble.temperature) if shuffle else (1, 0.0)

    def make_run(run_index: int) -> dict:
        return answer_item(item, stage, instruction, exemplars, endpoint,
                           temperature=temperature, run_index=run_index, shuffle=shuffle,
                           seed=seed, max_tries=max_tries)

    runs: list[dict] = []
    counts: dict[str, int] = {}
    while len(runs) < n_runs:
        leader, runner_up = (sorted(counts.values(), reverse=True) + [0, 0])[:2]
        left = n_runs - len(runs)
        if leader > runner_up + left:
            break
        # A stop after k more runs needs leader + k > runner_up + left - k.
        size = min(left, (runner_up + left - leader) // 2 + 1)
        for run in _run_wave(make_run, range(len(runs), len(runs) + size), run_pool):
            runs.append(run)
            if run["decision"] != INVALID:
                counts[run["decision"]] = counts.get(run["decision"], 0) + 1
    decision, tie_broken = aggregate_votes([run["decision"] for run in runs])
    return {
        "schema": TRACE_SCHEMA,
        "item_id": item.id,
        "gold": item.gold,
        "stage": stage.value,
        "decision": decision,
        "correct": decision == item.gold,
        "tie_broken": tie_broken,
        "n_calls": sum(run["tries"] for run in runs),
        "per_run": runs,
    }


def _run_wave(make_run, run_indices: range, run_pool: ThreadPoolExecutor | None
              ) -> list[dict]:
    """`make_run` over `run_indices`, returned in index order.

    Without a pool the runs are made one by one and the first error ends the
    wave. With one, the pool makes every run of the wave and the caller only
    waits; every call of the wave returns before the lowest failing run's
    error is raised, so no call outlives its item.
    """
    if run_pool is None:
        return [make_run(run_index) for run_index in run_indices]
    futures = [run_pool.submit(make_run, run_index) for run_index in run_indices]
    wait(futures)
    return [future.result() for future in futures]


def read_trace(trace_path: str | Path) -> list[dict]:
    """The rows of a trace, in file order.

    A last line that lacks its newline and does not parse is a write cut
    short by a crash; it is skipped, so the item runs again on resume. A
    corrupt line anywhere else, or a row that is not an object with a string
    `item_id` and `stage`, is an error.
    """
    return _scan_trace(Path(trace_path))[0]


def _scan_trace(path: Path) -> tuple[list[dict], tuple[int, bytes] | None]:
    """`read_trace`'s rows, plus the tail mend `scan_jsonl` returns."""
    def corrupt(lineno: int, exc: ValueError) -> None:
        raise ConfigError(f"{path}:{lineno}: corrupt trace row: {exc}") from exc

    rows, mend = scan_jsonl(path, corrupt)
    for lineno, row in rows:
        if not (isinstance(row, dict) and isinstance(row.get("item_id"), str)
                and isinstance(row.get("stage"), str)):
            corrupt(lineno, ValueError("not an object with a string item_id and stage"))
    return [row for _, row in rows], mend


def run_benchmark(
    items: list[McqItem],
    stage: Stage,
    endpoint,
    instruction: str,
    exemplars_for,
    trace_path: str | Path,
    seed: int = 0,
    ensemble: EnsembleConfig = EnsembleConfig(),
    max_tries: int = MAX_VALIDITY_TRIES,
    concurrency: int = 1,
    resume: bool = False,
    progress=None,
) -> list[dict]:
    """Run one stage over a whole split, checkpointing each item to the trace.

    `exemplars_for` maps an item to the exemplar list its prompt should
    carry; stages without exemplars pass a provider returning []. With
    `resume`, item ids already present in the trace are skipped; without it,
    a partially written trace is an error rather than silently extended.
    An item whose every try failed in transport gets no row: its
    `EndpointError` ends the run, and a resumed run asks for it again.

    The stage opens the trace once, after mending a torn tail once, and
    writes and flushes each row under one lock, so a row is on disk before
    the next is written. The file closes on every exit path, after every
    item thread has ended: an error or Ctrl-C leaves only complete rows.

    `concurrency` items are answered at a time, with one exception: an
    ensemble of more than one run against an `HttpEndpoint` at concurrency
    above 1. There the stage's calls share one budget of
    B = `concurrency * (n_runs // 2 + 1)`: every run of every wave goes to
    one run pool of B threads, and up to B items are open at once, so more
    than `concurrency` items can be waiting on their waves. An item's own
    thread only builds its exemplars, submits a wave, waits for it and
    votes. The target sees at most B calls in flight, and building
    exemplars (with any teacher calls on manifest misses) stays at
    `concurrency` items at a time, so the teacher sees at most
    `concurrency`. In-process endpoints make every run inline: their calls hold the
    interpreter lock, and a mock's per-prompt answer script would depend on
    thread timing.
    Returns the trace rows for all requested items, in item order.
    """
    trace_path = Path(trace_path)
    existing, mend = _scan_trace(trace_path)
    for row in existing:
        if row["stage"] != stage.value:
            raise ConfigError(
                f"{trace_path}: trace holds stage {row['stage']!r}, expected {stage.value!r}"
            )
    done = {row["item_id"] for row in existing}
    todo = [item for item in items if item.id not in done]
    if todo and done and not resume:
        raise ConfigError(
            f"{trace_path}: trace already holds {len(done)} items; "
            f"resume the run or remove the trace"
        )

    rows_by_id = {row["item_id"]: row for row in existing}
    if todo:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        if mend is not None:
            mend_tail(trace_path, mend)
        write_lock = threading.Lock()
        overlap = (concurrency > 1 and stage is Stage.ENSEMBLE and ensemble.n_runs > 1
                   and isinstance(endpoint, HttpEndpoint))
        budget = concurrency * (ensemble.n_runs // 2 + 1) if overlap else concurrency
        exemplar_slots = (threading.BoundedSemaphore(concurrency) if overlap
                          else contextlib.nullcontext())

        def handle(item: McqItem, run_pool: ThreadPoolExecutor | None) -> None:
            with exemplar_slots:
                exemplars = exemplars_for(item)
            row = answer_stage_item(
                item, stage, instruction, exemplars, endpoint, seed=seed,
                ensemble=ensemble, max_tries=max_tries, run_pool=run_pool,
            )
            with write_lock:
                trace.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
                trace.flush()
                rows_by_id[row["item_id"]] = row
            if progress is not None:
                progress(row)

        # Every item thread has ended before the trace closes: the item pool
        # waits for its running items, also after an error or Ctrl-C.
        with open(trace_path, "a", encoding="utf-8") as trace:
            if concurrency <= 1:
                for item in todo:
                    handle(item, None)
            else:
                run_pool = ThreadPoolExecutor(max_workers=budget) if overlap else None
                # The item pool shuts down first: its running items still submit runs.
                with run_pool or contextlib.nullcontext(), \
                        ThreadPoolExecutor(max_workers=budget) as pool:
                    futures = [pool.submit(handle, item, run_pool) for item in todo]
                    try:
                        wait(futures, return_when=FIRST_EXCEPTION)
                    finally:
                        # After the first error (or Ctrl-C) no further item starts.
                        pool.shutdown(cancel_futures=True)
                for future in futures:
                    if not future.cancelled():
                        future.result()

    # Every item to do either added its row or raised above.
    return [rows_by_id[item.id] for item in items]
