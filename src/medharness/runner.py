"""Benchmark execution: per-item generation loops, ensembles, and traces.

A stage names one rung of the prompting ladder. Single-generation stages ask
the target model once per item at temperature 0, re-asking up to a bounded
number of tries when no answer can be extracted. The ensemble stage runs the
strongest prompt five times at temperature 0.4, each run presenting the test
question's options in a different seeded order, and majority-votes the
decisions after mapping them back to canonical labels.

Every completed item is appended to a JSON-lines trace as soon as it
finishes; the trace doubles as the checkpoint, so an interrupted run resumes
by skipping the item ids already present.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import McqItem, mend_tail, scan_jsonl
from .errors import ConfigError, EndpointError, IncompleteRunError
from .modelgw import GenerationRequest, complete, default_max_tokens
from .parsing import INVALID, extract_answer
from .promptkit import (
    STOP_SEQUENCES,
    CotExemplar,
    Strategy,
    assemble_prompt,
    extraction_tokens,
    identity_permutation,
    shuffle_options,
)

__all__ = [
    "Stage",
    "LADDER",
    "EnsembleConfig",
    "RunResult",
    "ItemResult",
    "answer_item",
    "answer_item_ensemble",
    "aggregate_votes",
    "generation_request",
    "run_benchmark",
    "read_trace",
    "INVALID",
    "extract_answer",
]

MAX_VALIDITY_TRIES = 5
TRACE_SCHEMA = 1


class Stage(str, Enum):
    ZERO_SHOT = "zero_shot"
    RANDOM_FEWSHOT = "random_fewshot"
    RANDOM_FEWSHOT_COT = "random_fewshot_cot"
    KNN_FEWSHOT_COT = "knn_fewshot_cot"
    ENSEMBLE = "ensemble"

    @property
    def strategy(self) -> Strategy:
        if self is Stage.ENSEMBLE:
            return Strategy.KNN_FEWSHOT_COT
        return Strategy(self.value)

    @property
    def is_ensemble(self) -> bool:
        return self is Stage.ENSEMBLE


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


@dataclass(frozen=True)
class RunResult:
    """One generation pass over one (possibly shuffled) presentation."""

    run_index: int
    permutation: dict[str, str]
    presented: str
    decision: str
    raw_text: str
    tries: int
    transport_errors: int
    prompt_sha256: str


@dataclass(frozen=True)
class ItemResult:
    item_id: str
    gold: str
    stage: Stage
    decision: str
    correct: bool
    tie_broken: bool
    per_run: tuple[RunResult, ...]

    @property
    def n_calls(self) -> int:
        return sum(run.tries for run in self.per_run)


def aggregate_votes(decisions: list[str]) -> tuple[str, bool]:
    """Majority vote over canonical decisions, ignoring invalid runs.

    Ties break toward the earliest run whose decision is among the tied
    labels. All runs invalid yields the invalid marker.
    """
    valid = [d for d in decisions if d != INVALID]
    if not valid:
        return INVALID, False
    counts = Counter(valid)
    top = max(counts.values())
    tied = {label for label, count in counts.items() if count == top}
    if len(tied) == 1:
        return next(iter(tied)), False
    for decision in decisions:
        if decision in tied:
            return decision, True
    raise AssertionError("unreachable: tied labels came from the decisions")


def generation_request(model_id: str, prompt: str, strategy: Strategy,
                       exemplars: list[CotExemplar], temperature: float = 0.0,
                       seed: int | None = None) -> GenerationRequest:
    """The request for one target prompt.

    Only strategies that show explanations size the token budget from them;
    the others get the answer-only budget.
    """
    return GenerationRequest(
        model_id=model_id,
        prompt=prompt,
        temperature=temperature,
        max_tokens=default_max_tokens(exemplars if strategy.cot else []),
        stop_sequences=STOP_SEQUENCES,
        seed=seed,
    )


def answer_item(
    item: McqItem,
    strategy: Strategy,
    instruction: str,
    exemplars: list[CotExemplar],
    endpoint,
    temperature: float = 0.0,
    run_index: int = 0,
    shuffle: bool = False,
    seed: int = 0,
    max_tries: int = MAX_VALIDITY_TRIES,
    request_seed: int | None = None,
) -> RunResult:
    """One generation pass: build the prompt, call the model, extract.

    Retries generation up to `max_tries` when the output yields no parseable
    answer; transport failures count as tries. The returned decision is the
    canonical label (the extracted presented label mapped back through the
    permutation), or the invalid marker when no try gave a parseable answer.
    When every try failed in transport the model never answered, so there is
    nothing to score: that raises the last `EndpointError`.
    """
    if shuffle:
        presented_item, permutation = shuffle_options(item, seed, run_index)
    else:
        presented_item, permutation = item, identity_permutation(item)
    bundle = assemble_prompt(
        strategy, instruction, exemplars, presented_item,
        permutation=permutation, run_index=run_index,
    )
    labels, word_tokens = extraction_tokens(presented_item)
    to_canonical = {presented: canonical for canonical, presented in permutation.items()}
    request = generation_request(endpoint.model_id, bundle.text, strategy, exemplars,
                                 temperature=temperature, seed=request_seed)
    prompt_sha = hashlib.sha256(bundle.text.encode("utf-8")).hexdigest()

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
    decision = to_canonical[presented_label] if presented_label != INVALID else INVALID
    return RunResult(
        run_index=run_index,
        permutation=dict(permutation),
        presented=presented_label,
        decision=decision,
        raw_text=raw_text,
        tries=tries,
        transport_errors=transport_errors,
        prompt_sha256=prompt_sha,
    )


def answer_item_ensemble(
    item: McqItem,
    instruction: str,
    exemplars: list[CotExemplar],
    endpoint,
    seed: int,
    ensemble: EnsembleConfig = EnsembleConfig(),
    max_tries: int = MAX_VALIDITY_TRIES,
    request_seed: int | None = None,
) -> ItemResult:
    """Shuffled-presentation ensemble over the strongest prompt, then vote."""
    runs = [
        answer_item(
            item,
            Strategy.KNN_FEWSHOT_COT,
            instruction,
            exemplars,
            endpoint,
            temperature=ensemble.temperature,
            run_index=run_index,
            shuffle=True,
            seed=seed,
            max_tries=max_tries,
            request_seed=request_seed,
        )
        for run_index in range(ensemble.n_runs)
    ]
    decision, tie_broken = aggregate_votes([run.decision for run in runs])
    return ItemResult(
        item_id=item.id,
        gold=item.gold,
        stage=Stage.ENSEMBLE,
        decision=decision,
        correct=decision == item.gold,
        tie_broken=tie_broken,
        per_run=tuple(runs),
    )


def _result_row(result: ItemResult) -> dict:
    return {
        "schema": TRACE_SCHEMA,
        "item_id": result.item_id,
        "gold": result.gold,
        "stage": result.stage.value,
        "decision": result.decision,
        "correct": result.correct,
        "tie_broken": result.tie_broken,
        "n_calls": result.n_calls,
        "per_run": [
            {
                "run_index": run.run_index,
                "permutation": run.permutation,
                "presented": run.presented,
                "decision": run.decision,
                "raw_text": run.raw_text,
                "tries": run.tries,
                "transport_errors": run.transport_errors,
                "prompt_sha256": run.prompt_sha256,
            }
            for run in result.per_run
        ],
    }


def read_trace(trace_path: str | Path) -> list[dict]:
    """The rows of a trace, in file order.

    A last line that lacks its newline and does not parse is a write cut
    short by a crash; it is skipped, so the item runs again on resume. A
    corrupt line anywhere else is an error.
    """
    return _scan_trace(Path(trace_path))[0]


def _scan_trace(path: Path) -> tuple[list[dict], tuple[int, bytes] | None]:
    """`read_trace`'s rows, plus the tail mend `scan_jsonl` returns."""
    def corrupt(lineno: int, exc: ValueError) -> None:
        raise ConfigError(f"{path}:{lineno}: corrupt trace row: {exc}") from exc

    rows, mend = scan_jsonl(path, corrupt)
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
    request_seed: int | None = None,
    progress=None,
) -> list[dict]:
    """Run one stage over a whole split, checkpointing each item to the trace.

    `exemplars_for` maps an item to the exemplar list its prompt should
    carry; stages without exemplars pass a provider returning []. With
    `resume`, item ids already present in the trace are skipped; without it,
    a partially written trace is an error rather than silently extended.
    An item whose every try failed in transport gets no row: its
    `EndpointError` ends the run, and a resumed run asks for it again.
    Returns the trace rows for all requested items, in item order.
    """
    trace_path = Path(trace_path)
    existing, mend = _scan_trace(trace_path)
    for row in existing:
        if row.get("stage") != stage.value:
            raise ConfigError(
                f"{trace_path}: trace holds stage {row.get('stage')!r}, expected {stage.value!r}"
            )
    done = {row["item_id"] for row in existing}
    wanted_ids = [item.id for item in items]
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

        def handle(item: McqItem) -> None:
            if stage.is_ensemble:
                result = answer_item_ensemble(
                    item, instruction, exemplars_for(item), endpoint,
                    seed=seed, ensemble=ensemble, max_tries=max_tries,
                    request_seed=request_seed,
                )
            else:
                run = answer_item(
                    item, stage.strategy, instruction, exemplars_for(item), endpoint,
                    temperature=0.0, run_index=0, shuffle=False, seed=seed,
                    max_tries=max_tries, request_seed=request_seed,
                )
                result = ItemResult(
                    item_id=item.id,
                    gold=item.gold,
                    stage=stage,
                    decision=run.decision,
                    correct=run.decision == item.gold,
                    tie_broken=False,
                    per_run=(run,),
                )
            row = _result_row(result)
            with write_lock:
                with open(trace_path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
                rows_by_id[row["item_id"]] = row
            if progress is not None:
                progress(row)

        if concurrency <= 1:
            for item in todo:
                handle(item)
        else:
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                futures = [pool.submit(handle, item) for item in todo]
                try:
                    wait(futures, return_when=FIRST_EXCEPTION)
                finally:
                    # After the first error (or Ctrl-C) no further item starts.
                    pool.shutdown(cancel_futures=True)
            for future in futures:
                if not future.cancelled():
                    future.result()

    missing = [item_id for item_id in wanted_ids if item_id not in rows_by_id]
    if missing:
        raise IncompleteRunError(
            f"{trace_path}: {len(missing)} items missing after run "
            f"(first: {missing[:3]})"
        )
    return [rows_by_id[item_id] for item_id in wanted_ids]
