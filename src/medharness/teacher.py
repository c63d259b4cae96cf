"""Exemplar explanations: generation by a teacher model, verification, caching.

A candidate pool item becomes a few-shot exemplar only if the teacher model,
prompted with the fixed explanation-request template, produces an explanation
whose extracted answer equals the item's gold label. Each candidate gets a
bounded number of attempts; a candidate that never verifies is dropped and
replaced by the next-most-similar pool item (or the next item in the seeded
random stream for randomly drawn exemplars). Verified explanations persist in
an on-disk cache keyed by item id and a fingerprint of the teacher model and
template, so reruns never re-pay teacher calls.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .corpus import McqItem, replace_atomically
from .errors import DataError, EndpointError
from .modelgw import GenerationRequest, MAX_COT_MAX_TOKENS, complete
from .parsing import extract_answer, extract_explanation
from .promptkit import (STOP_SEQUENCES, TEACHER_TEMPLATE, CotExemplar, extraction_tokens,
                        teacher_prompt)
from .retrieval import NeighborSet, VectorIndex, next_most_similar

__all__ = [
    "TeacherOutcome",
    "CotCache",
    "teacher_fingerprint",
    "generate_cot",
    "build_exemplars",
    "build_random_exemplars",
    "random_candidate_stream",
]

log = logging.getLogger(__name__)

MAX_TEACHER_ATTEMPTS = 3


def teacher_fingerprint(model_id: str) -> str:
    """Cache key component tying entries to one (teacher model, template) pair."""
    material = model_id.encode("utf-8") + b"\x1f" + TEACHER_TEMPLATE.encode("utf-8")
    return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class TeacherOutcome:
    """Record of one candidate's pass through the teacher."""

    item_id: str
    attempts: int
    accepted: bool
    explanation: str = ""
    extracted: str = ""
    transport_error: bool = False
    from_cache: bool = False


def _entry_path(cache_dir: Path, fingerprint: str, item_id: str) -> Path:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", item_id)
    suffix = hashlib.sha256(item_id.encode("utf-8")).hexdigest()[:8]
    return cache_dir / "cot" / fingerprint / f"{safe}-{suffix}.json"


class CotCache:
    """One JSON file per verified exemplar; corrupt entries read as misses.

    Entries read from disk and validated are kept in memory, so each is read
    once per instance. `put` replaces the entry file atomically and drops any
    remembered copy; the next `get` reads the new file.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self._read: dict[tuple[str, str], CotExemplar] = {}

    def get(self, item_id: str, fingerprint: str) -> CotExemplar | None:
        key = (fingerprint, item_id)
        if key in self._read:
            return self._read[key]
        path = _entry_path(self.cache_dir, fingerprint, item_id)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if entry["schema"] != 1 or entry["fingerprint"] != fingerprint:
                raise ValueError("schema or fingerprint mismatch")
            item = McqItem.from_json_obj(entry["item"])
            if item.id != item_id:
                raise ValueError(f"entry holds {item.id}, expected {item_id}")
            explanation = entry["explanation"]
            if not explanation.strip():
                raise ValueError("empty explanation")
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            log.warning("discarding corrupt cache entry %s: %s", path, exc)
            return None
        exemplar = CotExemplar(item=item, explanation=explanation, verified=True)
        self._read[key] = exemplar
        return exemplar

    def put(self, item: McqItem, explanation: str, fingerprint: str) -> None:
        path = _entry_path(self.cache_dir, fingerprint, item.id)
        entry = {
            "schema": 1,
            "fingerprint": fingerprint,
            "item": item.to_json_obj(),
            "explanation": explanation,
        }
        with replace_atomically(path) as f:
            f.write((json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8"))
        self._read.pop((fingerprint, item.id), None)


def generate_cot(
    item: McqItem,
    teacher,
    max_attempts: int = MAX_TEACHER_ATTEMPTS,
    temperature: float = 0.0,
    max_tokens: int = MAX_COT_MAX_TOKENS,
) -> TeacherOutcome:
    """Ask the teacher for an explanation of one item, verifying each attempt.

    Accepts only when the extracted answer equals the gold label and the
    explanation is non-empty. A transport failure ends the candidate early
    rather than spending its remaining attempts.
    """
    prompt = teacher_prompt(item)
    labels, word_tokens = extraction_tokens(item)
    attempts = 0
    explanation = ""
    extracted = ""
    for attempt in range(max_attempts):
        attempts = attempt + 1
        request = GenerationRequest(
            model_id=teacher.model_id,
            prompt=prompt,
            temperature=temperature,
            max_tokens=max_tokens,
            stop_sequences=STOP_SEQUENCES,
        )
        try:
            response = complete(request, teacher)
        except EndpointError:
            return TeacherOutcome(
                item_id=item.id,
                attempts=attempts,
                accepted=False,
                transport_error=True,
            )
        extracted = extract_answer(response.text, labels, word_tokens)
        explanation = extract_explanation(response.text)
        if extracted == item.gold and explanation:
            return TeacherOutcome(
                item_id=item.id,
                attempts=attempts,
                accepted=True,
                explanation=explanation,
                extracted=extracted,
            )
    return TeacherOutcome(
        item_id=item.id,
        attempts=attempts,
        accepted=False,
        explanation=explanation,
        extracted=extracted,
    )


def _verify_candidate(
    item: McqItem,
    teacher,
    cache: CotCache | None,
    fingerprint: str,
) -> tuple[CotExemplar | None, TeacherOutcome]:
    if cache is not None:
        hit = cache.get(item.id, fingerprint)
        if hit is not None:
            outcome = TeacherOutcome(
                item_id=item.id,
                attempts=0,
                accepted=True,
                explanation=hit.explanation,
                extracted=item.gold,
                from_cache=True,
            )
            return hit, outcome
    outcome = generate_cot(item, teacher)
    if not outcome.accepted:
        return None, outcome
    if cache is not None:
        cache.put(item, outcome.explanation, fingerprint)
    exemplar = CotExemplar(item=item, explanation=outcome.explanation, verified=True)
    return exemplar, outcome


def build_exemplars(
    neighbor_set: NeighborSet,
    index: VectorIndex,
    pool_items: Mapping[str, McqItem],
    teacher,
    cache: CotCache | None = None,
    n: int = 5,
) -> tuple[list[CotExemplar], list[TeacherOutcome]]:
    """Verified exemplars for one query, most similar first.

    Candidates come from the neighbor set in rank order; a candidate that
    fails verification is replaced by the next-most-similar unconsumed pool
    item. Raises when the pool runs out before `n` exemplars verify.
    """
    fingerprint = teacher_fingerprint(teacher.model_id)
    exemplars: list[CotExemplar] = []
    outcomes: list[TeacherOutcome] = []
    consumed: set[str] = set()
    initial = list(neighbor_set.ids)
    cursor = 0
    while len(exemplars) < n:
        if cursor < len(initial):
            candidate_id = initial[cursor]
            cursor += 1
            if candidate_id in consumed:
                continue
        else:
            try:
                candidate_id = next_most_similar(neighbor_set, consumed, index)
            except DataError as exc:
                raise DataError(
                    f"{neighbor_set.query_id}: only {len(exemplars)} of {n} exemplars verified "
                    f"before the pool ran out"
                ) from exc
        consumed.add(candidate_id)
        if candidate_id not in pool_items:
            raise DataError(f"pool item {candidate_id} referenced by index but not loaded")
        exemplar, outcome = _verify_candidate(pool_items[candidate_id], teacher, cache, fingerprint)
        outcomes.append(outcome)
        if exemplar is not None:
            exemplars.append(exemplar)
    return exemplars, outcomes


def random_candidate_stream(pool_ids: list[str], seed: int) -> list[str]:
    """The full candidate order for randomly drawn exemplars.

    This ordering is a stable contract: sort the pool ids, then draw a full
    sample without replacement from `random.Random(seed)`. Callers can
    recompute it independently to predict which pool items a run will use.
    """
    ordered = sorted(pool_ids)
    return random.Random(seed).sample(ordered, len(ordered))


def build_random_exemplars(
    pool: list[McqItem],
    seed: int,
    teacher=None,
    cache: CotCache | None = None,
    n: int = 5,
    cot: bool = False,
) -> tuple[list[CotExemplar], list[TeacherOutcome]]:
    """Exemplars drawn from the seeded random stream, fixed for a whole run.

    Without explanations the first `n` stream items are used as-is. With
    `cot=True` each candidate must verify through the teacher; failures are
    replaced by the next stream item.
    """
    items_by_id = {item.id: item for item in pool}
    stream = random_candidate_stream(list(items_by_id), seed)
    if not cot:
        exemplars = [CotExemplar(item=items_by_id[i]) for i in stream[:n]]
        if len(exemplars) < n:
            raise DataError(f"pool has {len(exemplars)} items, need {n} exemplars")
        return exemplars, []
    if teacher is None:
        raise DataError("a teacher endpoint is required for explained exemplars")
    fingerprint = teacher_fingerprint(teacher.model_id)
    exemplars = []
    outcomes: list[TeacherOutcome] = []
    for candidate_id in stream:
        if len(exemplars) == n:
            break
        exemplar, outcome = _verify_candidate(items_by_id[candidate_id], teacher, cache, fingerprint)
        outcomes.append(outcome)
        if exemplar is not None:
            exemplars.append(exemplar)
    if len(exemplars) < n:
        raise DataError(
            f"only {len(exemplars)} of {n} random exemplars verified before the pool ran out"
        )
    return exemplars, outcomes
