"""Benchmark execution: per-item generation loops, ensembles, and traces.

A stage names one rung of the prompting ladder, and `answer_stage_item` is
the one place that turns a stage into generation passes. Single-generation
stages ask the target model once per item at temperature 0. The ensemble
stage runs the strongest prompt up to five times at temperature 0.4, each run
presenting the test question's options in a different seeded order, and
stops as soon as the remaining runs could no longer change the vote. An
item's runs are made one by one, in the thread that answers the item.
At concurrency above 1 the stage keeps B = concurrency * (runs // 2 + 1)
items open at once, each holding at most one call, so the target sees at
most B calls in flight while exemplar building, and with it the teacher,
stays at `concurrency` items at a time.
Every pass re-asks up to a bounded number of tries when no answer can be
extracted, and the passes' decisions, mapped back to canonical labels, are
majority-voted.

An item's result is its trace row, a plain dict: `answer_item` returns one
pass's `per_run` entry, `answer_stage_item` the row that holds them, and
`run_benchmark` appends that row to a JSON-lines trace as soon as the item
finishes. The trace doubles as the checkpoint, so an interrupted run resumes
by skipping the item ids already present.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from .corpus import AppendLog, McqItem
from .errors import ConfigError, EndpointError
from .modelgw import GenerationRequest, complete, default_max_tokens
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
    request = GenerationRequest(
        model_id=endpoint.model_id,
        prompt=bundle.text,
        temperature=temperature,
        # Only stages that show explanations size the token budget from them.
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
    only the runs made, in run-index order. The runs are made one by one in
    the calling thread, so a run's error ends the item before a later run is
    sent. Every other stage runs one greedy pass over the canonical order.
    """
    shuffle = stage is Stage.ENSEMBLE
    n_runs, temperature = (ensemble.n_runs, ensemble.temperature) if shuffle else (1, 0.0)
    runs: list[dict] = []
    counts: dict[str, int] = {}
    for run_index in range(n_runs):
        leader, runner_up = (sorted(counts.values(), reverse=True) + [0, 0])[:2]
        if leader > runner_up + n_runs - run_index:
            break
        run = answer_item(item, stage, instruction, exemplars, endpoint,
                          temperature=temperature, run_index=run_index, shuffle=shuffle,
                          seed=seed, max_tries=max_tries)
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


def read_trace(trace_path: str | Path) -> list[dict]:
    """The rows of a trace, in file order. A torn last line (see `AppendLog`)
    is skipped, so its item runs again on resume; a corrupt line anywhere
    else, or a row that is not an object with a string `item_id` and
    `stage`, is an error."""
    return AppendLog(trace_path, _trace_row, _corrupt_trace).rows


def _trace_row(row) -> dict:
    if not (isinstance(row, dict) and isinstance(row.get("item_id"), str)
            and isinstance(row.get("stage"), str)):
        raise ValueError("not an object with a string item_id and stage")
    return row


def _corrupt_trace(path: Path, lineno: int, exc: ValueError) -> None:
    raise ConfigError(f"{path}:{lineno}: corrupt trace row: {exc}") from exc


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
) -> list[dict]:
    """Run one stage over a whole split, checkpointing each item to the trace.

    `exemplars_for` maps an item to the exemplar list its prompt should
    carry; stages without exemplars pass a provider returning []. With
    `resume`, item ids already present in the trace are skipped;
    without it, a partially written trace is an error rather than silently
    extended.
    An item whose every try failed in transport gets no row: its
    `EndpointError` ends the run, and a resumed run asks for it again.

    The stage appends to the trace through one `AppendLog` handle, so a row
    is on disk before the next is written. The file closes on every exit
    path, after every item thread has ended: an error or Ctrl-C leaves only
    complete rows.

    `concurrency` items are answered at a time, with one exception: an
    ensemble of more than one run at concurrency above 1 keeps
    B = `concurrency * (n_runs // 2 + 1)` items open, each making its runs
    one by one, so the target sees at most B calls in flight. Building
    exemplars (with any teacher calls on manifest misses) stays at
    `concurrency` items at a time in every stage, so the teacher sees at
    most `concurrency`.
    Returns the trace rows for all requested items, in item order.
    """
    trace = AppendLog(trace_path, _trace_row, _corrupt_trace)
    for row in trace.rows:
        if row["stage"] != stage.value:
            raise ConfigError(
                f"{trace_path}: trace holds stage {row['stage']!r}, expected {stage.value!r}"
            )
    done = {row["item_id"] for row in trace.rows}
    todo = [item for item in items if item.id not in done]
    if todo and done and not resume:
        raise ConfigError(
            f"{trace_path}: trace already holds {len(done)} items; "
            f"resume the run or remove the trace"
        )

    rows_by_id = {row["item_id"]: row for row in trace.rows}
    if todo:
        width = concurrency * (ensemble.n_runs // 2 + 1 if stage is Stage.ENSEMBLE else 1)
        exemplar_slots = threading.BoundedSemaphore(concurrency)

        def handle(item: McqItem) -> None:
            with exemplar_slots:
                exemplars = exemplars_for(item)
            row = answer_stage_item(
                item, stage, instruction, exemplars, endpoint, seed=seed,
                ensemble=ensemble, max_tries=max_tries,
            )
            append(row)
            rows_by_id[row["item_id"]] = row

        # Every item thread has ended before the trace closes: the item pool
        # waits for its running items, also after an error or Ctrl-C.
        with trace.appending() as append:
            if concurrency <= 1:
                for item in todo:
                    handle(item)
            else:
                with ThreadPoolExecutor(max_workers=width) as pool:
                    futures = [pool.submit(handle, item) for item in todo]
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
