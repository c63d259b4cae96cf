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
import logging
import random
import threading
from collections.abc import Iterator, Mapping
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

from .corpus import AppendLog, McqItem, PoolView, read_headed, write_headed
from .errors import DataError
from .modelgw import GenerationRequest, MAX_COT_MAX_TOKENS, complete
from .parsing import extract_answer, extract_explanation
from .promptkit import (FEWSHOT_SIZE, STOP_SEQUENCES, TEACHER_TEMPLATE, CotExemplar,
                        extraction_tokens, teacher_prompt)
from .retrieval import NeighborSet, VectorIndex, next_most_similar

__all__ = [
    "TeacherOutcome",
    "CotCache",
    "teacher_fingerprint",
    "generate_cot",
    "build_exemplars",
    "build_random_exemplars",
    "random_candidate_stream",
    "save_exemplar_manifest",
    "load_exemplar_manifest",
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
    from_cache: bool = False


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CotCache:
    """Verified explanations of one teacher, in one append-only JSON-lines file.

    The teacher's fingerprint (`teacher_fingerprint(teacher_model)`) is fixed
    on construction and names the file, `cot/<fingerprint>.jsonl`, which
    holds one row per verified explanation: the item id, the SHA-256 of the
    item's canonical JSON, and the explanation. The file is read once per
    instance, on first use; for an id written twice the last row wins. An
    entry is a hit only for an item with the recorded digest, so an item
    re-ingested under the same id with other text misses. `get` first
    compares the digest of the item's stripped pool line, when the caller
    has it: a match means the line is the canonical JSON `put` digested, so
    the item need not be serialized again. Any other line (keys reordered,
    spaces added) falls back to the canonical digest. The file is an
    `AppendLog`: a corrupt row reads as a miss and logs a warning.

    The instance keeps the last exemplar per id: the one `get` built, or the
    one `put` made for the explanation it wrote, so the exemplar a teacher
    just verified is the one later uses of that item object get back.
    `verify` asks the teacher about each item at most once per instance, and
    answers an item object it already accepted from what it kept: that
    exemplar and the cache-hit outcome reporting it, built once.
    """

    def __init__(self, cache_dir: str | Path, teacher_model: str):
        self.teacher_model = teacher_model
        self.fingerprint = teacher_fingerprint(teacher_model)
        self.path = Path(cache_dir) / "cot" / f"{self.fingerprint}.jsonl"
        self._lock = threading.Lock()
        self._log: AppendLog | None = None
        self._entries: dict[str, tuple[str, str]] = {}  # item id -> (item digest, explanation)
        # item id -> the last exemplar kept for it, returned again for the same
        # item object without digesting it again, and once `verify` has
        # answered with it, the cache-hit outcome reporting it.
        self._hits: dict[str, tuple[CotExemplar, TeacherOutcome | None]] = {}
        self._verdicts: dict[str, Future] = {}

    def _loaded(self) -> dict[str, tuple[str, str]]:
        """The entries, read from the file on first use; call under the lock."""
        if self._log is None:
            self._log = AppendLog(self.path, _cache_entry, _discard_corrupt)
            self._entries = {item_id: (digest, text) for item_id, digest, text in self._log.rows}
        return self._entries

    def get(self, item: McqItem, line: str | None = None) -> CotExemplar | None:
        """The item's cached exemplar, or None; `line` is the stripped pool
        line `item` was parsed from, if the caller has it."""
        with self._lock:
            kept = self._hits.get(item.id)
            if kept is not None and kept[0].item is item:
                return kept[0]
            entry = self._loaded().get(item.id)
        if entry is None:
            return None
        digest = entry[0]
        if (line is None or _sha256(line) != digest) and _sha256(item.canonical_json()) != digest:
            return None
        hit = CotExemplar(item=item, explanation=entry[1], verified=True)
        with self._lock:
            self._hits[item.id] = hit, None
        return hit

    def put(self, item: McqItem, explanation: str) -> CotExemplar:
        """Append the item's verified explanation; return the exemplar now kept for it."""
        hit = CotExemplar(item=item, explanation=explanation, verified=True)
        digest = _sha256(item.canonical_json())
        with self._lock:
            entries = self._loaded()
            with self._log.appending() as append:
                append({"id": item.id, "item_sha256": digest, "explanation": explanation})
            entries[item.id] = (digest, explanation)
            self._hits[item.id] = hit, None
        return hit

    def verify(self, item: McqItem, teacher) -> tuple[CotExemplar | None, TeacherOutcome]:
        """The item's exemplar from the cache, else from the teacher, once per instance.

        The first caller for an item does the work; callers arriving while it
        runs wait for its outcome. After that an accepted item is a cache hit
        and a rejected one stays rejected, so the exemplars never depend on
        thread timing. Reused acceptances read as cache hits: the same item
        object gets the kept exemplar and outcome back, with no new work.
        """
        with self._lock:
            verdict = self._verdicts.get(item.id)
            first = verdict is None
            if first:
                kept = self._hits.get(item.id)
                if kept is not None and kept[0].item is item:
                    if kept[1] is None:
                        kept = self._hits[item.id] = kept[0], _cache_hit(kept[0])
                    return kept
                verdict = self._verdicts[item.id] = Future()
        if not first:
            exemplar, outcome = verdict.result()
            return exemplar, (outcome if exemplar is None else _cache_hit(exemplar))
        try:
            hit = self.get(item)
            if hit is not None:
                result = hit, _cache_hit(hit)
            else:
                outcome = generate_cot(item, teacher)
                result = (self.put(item, outcome.explanation) if outcome.accepted else None,
                          outcome)
        except BaseException as exc:
            verdict.set_exception(exc)
            raise
        verdict.set_result(result)
        exemplar, outcome = result
        if exemplar is not None:
            # Accepted: from now on the kept answer serves the item, so only
            # rejections and errors keep their future.
            with self._lock:
                del self._verdicts[item.id]
                self._hits[item.id] = exemplar, (outcome if outcome.from_cache
                                                 else _cache_hit(exemplar))
        return result


def _cache_entry(row) -> tuple[str, str, str]:
    """A cache row's id, item digest and explanation: strings, the last not blank."""
    try:
        entry = row["id"], row["item_sha256"], row["explanation"]
        if not all(isinstance(v, str) for v in entry):
            raise TypeError("id, item_sha256 and explanation must be strings")
        if not entry[2].strip():
            raise ValueError("empty explanation")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(repr(exc)) from exc
    return entry


def _discard_corrupt(path: Path, lineno: int, exc: ValueError) -> None:
    log.warning("discarding corrupt cache row %s:%d: %s", path, lineno, exc)


def _cache_hit(exemplar: CotExemplar) -> TeacherOutcome:
    return TeacherOutcome(item_id=exemplar.item.id, attempts=0, accepted=True,
                          explanation=exemplar.explanation, extracted=exemplar.item.gold,
                          from_cache=True)


def generate_cot(item: McqItem, teacher) -> TeacherOutcome:
    """Ask the teacher for an explanation of one item, verifying each attempt.

    Makes up to `MAX_TEACHER_ATTEMPTS` greedy requests of at most
    `MAX_COT_MAX_TOKENS` tokens. Accepts only when the extracted answer
    equals the gold label and the explanation is non-empty. A transport
    failure (`EndpointError`) propagates: an outage must stop the command,
    not swap the exemplars.
    """
    labels, word_tokens = extraction_tokens(item)
    request = GenerationRequest(
        model_id=teacher.model_id,
        prompt=teacher_prompt(item),
        max_tokens=MAX_COT_MAX_TOKENS,
        stop_sequences=STOP_SEQUENCES,
    )
    for attempts in range(1, MAX_TEACHER_ATTEMPTS + 1):
        response = complete(request, teacher)
        extracted = extract_answer(response.text, labels, word_tokens)
        explanation = extract_explanation(response.text)
        accepted = extracted == item.gold and bool(explanation)
        if accepted:
            break
    return TeacherOutcome(item_id=item.id, attempts=attempts, accepted=accepted,
                          explanation=explanation, extracted=extracted)


def _teacher_verdict(item: McqItem, teacher) -> tuple[CotExemplar | None, TeacherOutcome]:
    outcome = generate_cot(item, teacher)
    if not outcome.accepted:
        return None, outcome
    return CotExemplar(item=item, explanation=outcome.explanation, verified=True), outcome


def _first_verified(candidates, teacher,
                    cache: CotCache | None) -> tuple[list[CotExemplar], list[TeacherOutcome]]:
    """The first `FEWSHOT_SIZE` candidates that verify, in stream order; fewer
    if the stream runs out. Candidates past the last acceptance are never drawn.
    A cache of another teacher is refused."""
    if cache is not None and cache.teacher_model != teacher.model_id:
        raise ValueError(f"{teacher.model_id!r} cannot verify into {cache.teacher_model!r}'s cache")
    exemplars: list[CotExemplar] = []
    outcomes: list[TeacherOutcome] = []
    candidates = iter(candidates)
    while len(exemplars) < FEWSHOT_SIZE:
        item = next(candidates, None)
        if item is None:
            break
        if cache is not None:
            exemplar, outcome = cache.verify(item, teacher)
        else:
            exemplar, outcome = _teacher_verdict(item, teacher)
        outcomes.append(outcome)
        if exemplar is not None:
            exemplars.append(exemplar)
    return exemplars, outcomes


def _knn_candidates(neighbor_set: NeighborSet, index: VectorIndex,
                    pool_items: Mapping[str, McqItem]) -> Iterator[McqItem]:
    """The neighbor set in rank order, then each next-most-similar pool item
    until the pool runs out."""
    consumed: set[str] = set()
    initial = iter(neighbor_set.ids)
    while True:
        candidate_id = next(initial, None)
        if candidate_id is None:
            try:
                candidate_id = next_most_similar(neighbor_set, consumed, index)
            except DataError:
                return
        elif candidate_id in consumed:
            continue
        consumed.add(candidate_id)
        if candidate_id not in pool_items:
            raise DataError(f"pool item {candidate_id} referenced by index but not loaded")
        yield pool_items[candidate_id]


def build_exemplars(
    neighbor_set: NeighborSet,
    index: VectorIndex,
    pool_items: Mapping[str, McqItem],
    teacher,
    cache: CotCache | None = None,
) -> tuple[list[CotExemplar], list[TeacherOutcome]]:
    """`FEWSHOT_SIZE` verified exemplars for one query, most similar first.

    Candidates come from the neighbor set in rank order; a candidate that
    fails verification is replaced by the next-most-similar unconsumed pool
    item. Raises when the pool runs out before enough exemplars verify.
    """
    exemplars, outcomes = _first_verified(_knn_candidates(neighbor_set, index, pool_items),
                                          teacher, cache)
    if len(exemplars) < FEWSHOT_SIZE:
        raise DataError(f"{neighbor_set.query_id}: only {len(exemplars)} of {FEWSHOT_SIZE} "
                        f"exemplars verified before the pool ran out")
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
    pool: Mapping[str, McqItem],
    seed: int,
    teacher=None,
    cache: CotCache | None = None,
) -> tuple[list[CotExemplar], list[TeacherOutcome]]:
    """`FEWSHOT_SIZE` exemplars drawn from the seeded random stream, fixed for
    a whole run.

    Without a teacher the first stream items are used as-is, with no
    explanation. With one, each candidate must verify through the teacher;
    failures are replaced by the next stream item. `pool` maps ids to items;
    only the stream items drawn are looked up.
    """
    stream = random_candidate_stream(list(pool), seed)
    if teacher is None:
        exemplars = [CotExemplar(item=pool[i]) for i in stream[:FEWSHOT_SIZE]]
        if len(exemplars) < FEWSHOT_SIZE:
            raise DataError(f"pool has {len(exemplars)} items, need {FEWSHOT_SIZE} exemplars")
        return exemplars, []
    exemplars, outcomes = _first_verified((pool[i] for i in stream), teacher, cache)
    if len(exemplars) < FEWSHOT_SIZE:
        raise DataError(f"only {len(exemplars)} of {FEWSHOT_SIZE} random exemplars verified "
                        f"before the pool ran out")
    return exemplars, outcomes


def save_exemplar_manifest(path: str | Path, header: dict,
                           exemplar_ids: dict[str, list[str]], pool: PoolView) -> None:
    """Write an exemplar manifest: `header`, then one row per test item with
    its exemplar ids in prompt order and the byte offset of each one's line
    in the pool file."""
    write_headed(path, header, ({"item_id": item_id, "exemplars": ids,
                                 "offsets": [pool.offset(i) for i in ids]}
                                for item_id, ids in exemplar_ids.items()))


def load_exemplar_manifest(path: str | Path, header: dict, pool: PoolView, item_ids: set[str],
                           warn_stale: bool = True) -> dict[str, tuple[str, ...]]:
    """Exemplar ids per test item in `item_ids`, from a manifest written
    under `header`; the rows of other items are skipped.

    Each exemplar is placed in `pool` at its recorded offset, and its line
    parsed then, once however many rows list it. A missing manifest is
    empty. A manifest with another header (another schema, or built from
    another pool, provider, teacher or test split) or with a row that is not
    `FEWSHOT_SIZE` ids each at the offset of its pool line is ignored with
    one warning, so its items build their exemplars as if it did not exist.
    `warn_stale=False` ignores another header silently, for the command that
    replaces it.
    """
    path = Path(path)
    if not path.exists():
        return {}
    try:
        recorded, rows = read_headed(path)
        if recorded != header:
            if not warn_stale:
                return {}
            stale = sorted(key for key in header.keys() | recorded.keys()
                           if recorded.get(key) != header.get(key))
            log.warning("ignoring exemplar manifest %s: %s differ from this run; "
                        "rerun `medharness gen-cot` to rebuild it", path, ", ".join(stale))
            return {}
        manifest = {}
        for row in rows:
            if row["item_id"] not in item_ids:
                continue
            ids, offsets = tuple(row["exemplars"]), row["offsets"]
            if len(ids) != FEWSHOT_SIZE or len(offsets) != len(ids):
                raise ValueError(f"{row['item_id']}: exemplars {ids} are not "
                                 f"{FEWSHOT_SIZE} pool ids with their offsets")
            for exemplar_id, offset in zip(ids, offsets):
                if exemplar_id not in pool:
                    pool.place(exemplar_id, offset)
                elif type(offset) is not int or offset != pool.offset(exemplar_id):
                    raise ValueError(f"{row['item_id']}: {exemplar_id} at offset {offset!r}, "
                                     f"placed before at {pool.offset(exemplar_id)}")
            manifest[row["item_id"]] = ids
    except (ValueError, KeyError, TypeError, DataError) as exc:
        log.warning("ignoring corrupt exemplar manifest %s: %s", path, exc)
        return {}
    return manifest
