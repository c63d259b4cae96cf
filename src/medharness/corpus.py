"""Benchmark ingestion into one normalized multiple-choice schema.

Four datasets are supported, each in its officially published serialization:

* MedQA      -- JSON lines, one question per line (``options`` dict keyed A-D,
                ``answer_idx`` gold letter).
* MedMCQA    -- JSON lines (``opa``..``opd`` option fields, 1-indexed ``cop``).
* PubMedQA   -- one JSON object mapping PMID -> record (``QUESTION``,
                ``CONTEXTS``, ``final_decision``); answers are yes/no/maybe,
                stored under internal labels A/B/C so that voting and parsing
                share one label-based code path, and the abstract context rides
                along for the reasoning-required setting.
* MMLU-Med   -- per-subject header-less CSVs (question, 4 options, gold letter)
                for the nine medical/clinical subjects.

Normalized corpora are stored as UTF-8 JSON lines, one item per line, next to
a manifest recording counts and the source checksum. Records that fail
validation are excluded and counted, never silently dropped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import string
import tempfile
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import DataError

__all__ = [
    "Dataset",
    "Split",
    "McqItem",
    "CorpusManifest",
    "LoadResult",
    "RecordError",
    "CorpusStore",
    "CorpusFile",
    "PoolView",
    "load_dataset",
    "read_normalized",
    "write_normalized",
    "replace_atomically",
    "scan_jsonl",
    "mend_tail",
    "MMLU_MED_SUBJECTS",
    "PUBMEDQA_WORDS",
    "POOL_SPLIT",
    "canonical_labels",
]


class Dataset(str, Enum):
    MEDQA = "medqa"
    MEDMCQA = "medmcqa"
    PUBMEDQA = "pubmedqa"
    MMLU_MED = "mmlu_med"


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


# The nine medically and clinically relevant MMLU subjects evaluated here.
MMLU_MED_SUBJECTS = (
    "anatomy",
    "clinical_knowledge",
    "college_biology",
    "college_medicine",
    "high_school_biology",
    "medical_genetics",
    "nutrition",
    "professional_medicine",
    "virology",
)

# PubMedQA answers are these literal words, held under labels A/B/C in this
# fixed order; prompt rendering turns them back into the bare words.
PUBMEDQA_WORDS = ("yes", "no", "maybe")

# Which ingested split supplies few-shot exemplars for each dataset. MMLU has
# no train split; its pool is the union of the official dev+val files, which
# ingestion stores under the normalized "dev" split.
POOL_SPLIT = {
    Dataset.MEDQA: Split.TRAIN,
    Dataset.MEDMCQA: Split.TRAIN,
    Dataset.PUBMEDQA: Split.TRAIN,
    Dataset.MMLU_MED: Split.DEV,
}

_LETTERS = string.ascii_uppercase


def canonical_labels(n_options: int) -> tuple[str, ...]:
    """Canonical label sequence for *n_options* options: A, B, C, ..."""
    return tuple(_LETTERS[:n_options])


@dataclass(frozen=True)
class McqItem:
    """One normalized multiple-choice question.

    ``options`` is an ordered tuple of (label, text) pairs with labels always
    in canonical order A, B, C, ... For PubMedQA the texts are the literal
    answer words yes/no/maybe; prompts render the words and parsing maps them
    back, so every dataset votes and scores over the same letter labels.
    """

    id: str
    dataset: Dataset
    split: Split
    question: str
    options: tuple[tuple[str, str], ...]
    gold: str
    subject: str | None = None
    context: str | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.options)

    def option_text(self, label: str) -> str:
        for lab, text in self.options:
            if lab == label:
                return text
        raise KeyError(label)

    @property
    def gold_text(self) -> str:
        return self.option_text(self.gold)

    def validate(self) -> None:
        """Raise DataError unless every schema invariant holds."""
        if not self.id:
            raise DataError("item id must be non-empty")
        if not self.question or not self.question.strip():
            raise DataError(f"{self.id}: question must be non-empty")
        if len(self.options) < 2:
            raise DataError(f"{self.id}: needs at least 2 options")
        labels = self.labels
        if len(set(labels)) != len(labels):
            raise DataError(f"{self.id}: duplicate option labels {labels}")
        expected = canonical_labels(len(self.options))
        if labels != expected:
            raise DataError(
                f"{self.id}: labels {labels} not in canonical order {expected}"
            )
        if sum(1 for lab in labels if lab == self.gold) != 1:
            raise DataError(f"{self.id}: gold {self.gold!r} not among labels {labels}")
        if any(not text.strip() for _, text in self.options):
            raise DataError(f"{self.id}: blank option text")
        if self.dataset is Dataset.PUBMEDQA:
            # Set comparison: shuffled presentation may reorder the words.
            texts = tuple(text for _, text in self.options)
            if sorted(texts) != sorted(PUBMEDQA_WORDS):
                raise DataError(
                    f"{self.id}: PubMedQA options must be the words {PUBMEDQA_WORDS}, got {texts}"
                )
            if not (self.context and self.context.strip()):
                raise DataError(f"{self.id}: PubMedQA items need a non-empty context")
        if self.dataset is Dataset.MEDQA and len(self.options) != 4:
            raise DataError(f"{self.id}: MedQA items carry exactly 4 options")
        if self.dataset is Dataset.MMLU_MED and self.subject not in MMLU_MED_SUBJECTS:
            raise DataError(f"{self.id}: unknown MMLU-Med subject {self.subject!r}")

    def canonical_json(self) -> str:
        """The item as one line of a normalized corpus file."""
        return json.dumps(self.to_json_obj(), ensure_ascii=False, sort_keys=True)

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.id,
            "dataset": self.dataset.value,
            "split": self.split.value,
            "question": self.question,
            "options": [[lab, text] for lab, text in self.options],
            "gold": self.gold,
        }
        if self.subject is not None:
            obj["subject"] = self.subject
        if self.context is not None:
            obj["context"] = self.context
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "McqItem":
        item = cls(
            id=obj["id"],
            dataset=Dataset(obj["dataset"]),
            split=Split(obj["split"]),
            question=obj["question"],
            options=tuple((lab, text) for lab, text in obj["options"]),
            gold=obj["gold"],
            subject=obj.get("subject"),
            context=obj.get("context"),
        )
        item.validate()
        return item


@dataclass(frozen=True)
class RecordError:
    """One rejected source record, with enough context to find it."""

    source: str
    location: str  # "line 17", "row 4", ...
    reason: str


@dataclass(frozen=True)
class CorpusManifest:
    dataset: Dataset
    split: Split
    item_count: int
    source_path: str
    checksum: str
    rejected_count: int = 0

    def to_json_obj(self) -> dict:
        return {
            "dataset": self.dataset.value,
            "split": self.split.value,
            "item_count": self.item_count,
            "source_path": self.source_path,
            "checksum": self.checksum,
            "rejected_count": self.rejected_count,
        }


@dataclass
class LoadResult:
    items: list[McqItem]
    manifest: CorpusManifest
    rejects: list[RecordError] = field(default_factory=list)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_checksum(paths: list[Path]) -> str:
    """Checksum of one source file, or of a sorted digest list for multi-file
    sources (MMLU ships one CSV per subject)."""
    if len(paths) == 1:
        return _sha256_file(paths[0])
    lines = sorted(f"{p.name}:{_sha256_file(p)}" for p in paths)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Per-dataset loaders
# ---------------------------------------------------------------------------


def _load_jsonl(path: Path, rejects: list[RecordError], make_item) -> list[McqItem]:
    """One item per non-blank line of a JSON-lines file, built by
    `make_item(record, lineno)`. A line that is not a JSON object, or whose
    record `make_item` or validation refuses, is rejected and counted."""
    items: list[McqItem] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            loc = f"line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                rejects.append(RecordError(str(path), loc, f"bad JSON: {exc}"))
                continue
            try:
                if not isinstance(rec, dict):
                    raise DataError(f"expected a JSON object, got {type(rec).__name__}")
                item = make_item(rec, lineno)
                item.validate()
            except (KeyError, TypeError, DataError) as exc:
                rejects.append(RecordError(str(path), loc, str(exc)))
                continue
            items.append(item)
    return items


def _load_medqa(split: Split, path: Path, rejects: list[RecordError]) -> list[McqItem]:
    def make_item(rec: dict, lineno: int) -> McqItem:
        opts_raw = rec["options"]
        gold = rec.get("answer_idx")
        if gold is None:
            raise KeyError("answer_idx")
        return McqItem(
            id=f"{split.value}-{lineno - 1:05d}",
            dataset=Dataset.MEDQA,
            split=split,
            question=str(rec["question"]),
            options=tuple((lab, str(opts_raw[lab])) for lab in sorted(opts_raw)),
            gold=str(gold),
        )

    return _load_jsonl(path, rejects, make_item)


def _load_medmcqa(split: Split, path: Path, rejects: list[RecordError]) -> list[McqItem]:
    def make_item(rec: dict, lineno: int) -> McqItem:
        cop = rec.get("cop")
        if not isinstance(cop, int) or not 1 <= cop <= 4:
            raise DataError(f"cop must be 1..4, got {cop!r}")
        return McqItem(
            id=str(rec["id"]),
            dataset=Dataset.MEDMCQA,
            split=split,
            question=str(rec["question"]),
            options=tuple((_LETTERS[i], str(rec[key]))
                          for i, key in enumerate(("opa", "opb", "opc", "opd"))),
            gold=_LETTERS[cop - 1],
            subject=rec.get("subject_name") or None,
        )

    return _load_jsonl(path, rejects, make_item)


def _load_pubmedqa(split: Split, path: Path, rejects: list[RecordError]) -> list[McqItem]:
    with open(path, encoding="utf-8") as f:
        try:
            blob = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(blob, dict):
        raise DataError(f"{path}: expected a PMID->record JSON object")
    items: list[McqItem] = []
    options = tuple(zip(canonical_labels(3), PUBMEDQA_WORDS))
    gold_by_word = {word: label for label, word in options}
    for pmid in sorted(blob):
        rec = blob[pmid]
        loc = f"pmid {pmid}"
        try:
            decision = str(rec["final_decision"]).strip().lower()
            if decision not in gold_by_word:
                raise DataError(f"final_decision must be one of {PUBMEDQA_WORDS}, got {decision!r}")
            contexts = rec.get("CONTEXTS") or []
            context = "\n".join(str(c) for c in contexts).strip()
            item = McqItem(
                id=str(pmid),
                dataset=Dataset.PUBMEDQA,
                split=split,
                question=str(rec["QUESTION"]),
                options=options,
                gold=gold_by_word[decision],
                context=context or None,
            )
            item.validate()
        except (KeyError, TypeError, DataError) as exc:
            rejects.append(RecordError(str(path), loc, str(exc)))
            continue
        items.append(item)
    return items


def _mmlu_csv_paths(split: Split, root: Path) -> list[Path]:
    """Locate the nine subjects' CSVs for *split* under *root*.

    Accepts either the official layout (root contains dev/, val/, test/
    subdirectories) or a flat directory of ``{subject}_{tag}.csv`` files.
    The example pool split ("dev") covers both the dev and val files.
    """
    tags = ("test",) if split is Split.TEST else ("dev", "val")
    paths: list[Path] = []
    missing: list[str] = []
    for subject in MMLU_MED_SUBJECTS:
        for tag in tags:
            candidates = [root / f"{subject}_{tag}.csv", root / tag / f"{subject}_{tag}.csv"]
            found = next((c for c in candidates if c.exists()), None)
            if found is None:
                missing.append(f"{subject}_{tag}.csv")
            else:
                paths.append(found)
    if missing:
        raise DataError(f"MMLU-Med source files missing under {root}: {', '.join(missing)}")
    return paths


def _load_mmlu_med(split: Split, root: Path, rejects: list[RecordError]) -> tuple[list[McqItem], list[Path]]:
    if split is Split.TRAIN:
        raise DataError(
            "MMLU-Med has no train split; ingest 'dev' (official dev+val files) for the example pool"
        )
    paths = _mmlu_csv_paths(split, root)
    items: list[McqItem] = []
    for path in paths:
        subject, _, tag = path.stem.rpartition("_")
        with open(path, encoding="utf-8", newline="") as f:
            for rowno, row in enumerate(csv.reader(f)):
                loc = f"row {rowno}"
                try:
                    if len(row) != 6:
                        raise DataError(f"expected 6 columns, got {len(row)}")
                    question, a, b, c, d, gold = row
                    item = McqItem(
                        id=f"{subject}-{tag}-{rowno:04d}",
                        dataset=Dataset.MMLU_MED,
                        split=split,
                        question=question,
                        options=(("A", a), ("B", b), ("C", c), ("D", d)),
                        gold=gold.strip(),
                        subject=subject,
                    )
                    item.validate()
                except DataError as exc:
                    rejects.append(RecordError(str(path), loc, str(exc)))
                    continue
                items.append(item)
    return items, paths


def load_dataset(dataset: Dataset, split: Split, source_path: str | Path) -> LoadResult:
    """Ingest one (dataset, split) from its official serialization.

    Returns normalized items plus a manifest; malformed records are rejected
    with per-record errors rather than aborting the load.
    """
    source = Path(source_path)
    if not source.exists():
        raise DataError(f"source path does not exist: {source}")
    rejects: list[RecordError] = []
    if dataset is Dataset.MMLU_MED:
        items, paths = _load_mmlu_med(split, source, rejects)
        checksum = source_checksum(paths)
    else:
        loader = {
            Dataset.MEDQA: _load_medqa,
            Dataset.MEDMCQA: _load_medmcqa,
            Dataset.PUBMEDQA: _load_pubmedqa,
        }[dataset]
        items = loader(split, source, rejects)
        checksum = source_checksum([source])
    _check_unique_ids([item.id for item in items], source)
    manifest = CorpusManifest(
        dataset=dataset,
        split=split,
        item_count=len(items),
        source_path=str(source),
        checksum=checksum,
        rejected_count=len(rejects),
    )
    return LoadResult(items=items, manifest=manifest, rejects=rejects)


def _check_unique_ids(ids: list[str], source: Path, lines: list[int] | None = None) -> None:
    """Raise DataError naming `source` on a repeated id, and the 1-based
    lines of both occurrences when `lines` gives each id's line index."""
    first: dict[str, int] = {}
    for n, item_id in enumerate(ids):
        if item_id in first:
            where = f" lines {lines[first[item_id]] + 1} and {lines[n] + 1}:" if lines else ""
            raise DataError(f"{source}:{where} duplicate item id {item_id!r}")
        first[item_id] = n


# ---------------------------------------------------------------------------
# Normalized on-disk format
# ---------------------------------------------------------------------------


@contextmanager
def replace_atomically(path: str | Path):
    """Yield a binary file that replaces `path` once the block completes.

    The data goes to a uniquely named temp file in the same directory, then
    `os.replace` moves it over `path`, so a concurrent reader sees the old
    file or the new one, never part of either. On error the temp file is
    removed and `path` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def scan_jsonl(path: Path, corrupt) -> tuple[list[tuple[int, object]], tuple[int, bytes] | None]:
    """The (line number, parsed value) pairs of an append-only JSON-lines file,
    plus how to mend its tail before appending.

    A last line that lacks its newline and does not parse is a write cut
    short by a crash; it is skipped. Any other line that does not parse is
    passed to `corrupt(lineno, exc)`, which may raise. The mend is None for a
    file that ends in a newline, else (offset, tail) for `mend_tail`: a torn
    last line is cut off, a last row that parses gets its newline back. A
    missing file has no rows.
    """
    rows: list[tuple[int, object]] = []
    if not path.exists():
        return rows, None
    offset, line = 0, b"\n"
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            try:
                rows.append((lineno, json.loads(line)))
            except ValueError as exc:
                if not line.endswith(b"\n"):
                    return rows, (start, b"")
                corrupt(lineno, exc)
    return rows, None if line.endswith(b"\n") else (offset, b"\n")


def mend_tail(path: Path, mend: tuple[int, bytes]) -> None:
    """Cut the file at `mend`'s offset and write its tail there (see `scan_jsonl`)."""
    offset, tail = mend
    with open(path, "rb+") as f:
        f.truncate(offset)
        f.seek(offset)
        f.write(tail)


def write_normalized(items: list[McqItem], path: str | Path) -> None:
    """Write items as one UTF-8 JSON object per line (stable key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    for item in items:
        buf.write(item.canonical_json())
        buf.write("\n")
    path.write_text(buf.getvalue(), encoding="utf-8")


class PoolQuestion(NamedTuple):
    """The two fields of a pool item that `build_index` embeds."""

    id: str
    question: str


class CorpusFile:
    """A normalized corpus file, read once: its SHA-256 and its lines.

    `sha256` digests exactly the bytes the lines come from. Lines are split
    on "\n" alone, never on the other separators `str.splitlines` knows, so
    a raw U+2028 inside a question stays in its line; the "\r" of a CRLF
    ending is whitespace. A blank line holds no item. `read_normalized`
    parses its lines as held, without reading the file again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.exists():
            raise DataError(f"normalized corpus file missing: {self.path}")
        data = self.path.read_bytes()
        self.sha256 = hashlib.sha256(data).hexdigest()
        try:
            self.lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: not UTF-8: {exc}") from exc

    def item_lines(self) -> list[int]:
        """Index in `lines` of each item, in file order."""
        return [i for i, line in enumerate(self.lines) if line.strip()]

    def parse(self, i: int) -> McqItem:
        """The validated item on line index `i`."""
        try:
            return McqItem.from_json_obj(json.loads(self.lines[i].strip()))
        except (KeyError, TypeError, DataError, ValueError) as exc:
            raise DataError(f"{self.path}: line {i + 1}: {exc}") from exc

    def questions(self) -> list[PoolQuestion]:
        """Each item's id and question, in file order, ids unique; no `McqItem` is built."""
        records = []
        lines = self.item_lines()
        for i in lines:
            try:
                obj = json.loads(self.lines[i].strip())
                if not isinstance(obj, dict):
                    raise DataError(f"expected a JSON object, got {type(obj).__name__}")
                item_id, question = obj.get("id"), obj.get("question")
                if not isinstance(item_id, str) or not item_id:
                    raise DataError(f"id must be a non-empty string, got {item_id!r}")
                if not isinstance(question, str) or not question.strip():
                    raise DataError(f"{item_id}: question must be non-empty")
            except (DataError, ValueError) as exc:
                raise DataError(f"{self.path}: line {i + 1}: {exc}") from exc
            records.append(PoolQuestion(item_id, question))
        _check_unique_ids([record.id for record in records], self.path, lines)
        return records


def read_normalized(path: str | Path | CorpusFile) -> list[McqItem]:
    """Every item of a normalized corpus file, validated, ids unique.

    `path` may be a CorpusFile already read; its lines are parsed as held.
    """
    source = path if isinstance(path, CorpusFile) else CorpusFile(path)
    lines = source.item_lines()
    items = [source.parse(i) for i in lines]
    _check_unique_ids([item.id for item in items], source.path, lines)
    return items


class PoolView(Mapping):
    """Pool items by id, each parsed from its line on first lookup.

    `ids` are the file's item ids in file order, as `CorpusFile.questions` or
    an index built from the same bytes lists them; a line whose item has
    another id, or is not a valid item, is an error when it is looked up.
    """

    def __init__(self, source: CorpusFile, ids: list[str]):
        lines = source.item_lines()
        if len(lines) != len(ids):
            raise DataError(f"{source.path}: {len(lines)} items, expected {len(ids)}")
        self._source = source
        self._lines = dict(zip(ids, lines))
        self._items: dict[str, McqItem] = {}

    def __getitem__(self, item_id: str) -> McqItem:
        item = self._items.get(item_id)
        if item is None:
            line = self._lines[item_id]
            item = self._source.parse(line)
            if item.id != item_id:
                raise DataError(
                    f"{self._source.path}: line {line + 1} holds {item.id!r}, expected {item_id!r}"
                )
            self._items[item_id] = item
        return item

    def line(self, item_id: str) -> str:
        """The stripped line `self[item_id]` is parsed from."""
        return self._source.lines[self._lines[item_id]].strip()

    def __contains__(self, item_id) -> bool:
        return item_id in self._lines

    def __iter__(self) -> Iterator[str]:
        return iter(self._lines)

    def __len__(self) -> int:
        return len(self._lines)


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(manifest.to_json_obj(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


class CorpusStore:
    """Access to normalized corpora under one directory.

    Layout: ``{root}/{dataset}/{split}.jsonl`` plus
    ``{root}/{dataset}/{split}.manifest.json``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def corpus_path(self, dataset: Dataset, split: Split) -> Path:
        return self.root / dataset.value / f"{split.value}.jsonl"

    def manifest_path(self, dataset: Dataset, split: Split) -> Path:
        return self.root / dataset.value / f"{split.value}.manifest.json"

    def save(self, result: LoadResult) -> Path:
        dataset, split = result.manifest.dataset, result.manifest.split
        write_normalized(result.items, self.corpus_path(dataset, split))
        write_manifest(result.manifest, self.manifest_path(dataset, split))
        return self.corpus_path(dataset, split)

    def load(self, dataset: Dataset, split: Split) -> list[McqItem]:
        return read_normalized(self.corpus_path(dataset, split))

    def has(self, dataset: Dataset, split: Split) -> bool:
        return self.corpus_path(dataset, split).exists()

    def pool_file(self, dataset: Dataset) -> CorpusFile:
        """The file few-shot exemplars are drawn from, read once."""
        split = POOL_SPLIT[dataset]
        path = self.corpus_path(dataset, split)
        if not path.exists():
            raise DataError(
                f"pool missing for {dataset.value}: ingest split '{split.value}' first ({path})"
            )
        return CorpusFile(path)

    def check_disjoint(self, dataset: Dataset, pool_ids: list[str],
                       test_ids: set[str] | None = None) -> None:
        """Raise DataError if a pool id is a test id.

        `test_ids` are the ids of the whole test split when the caller has
        read it already; otherwise its ids alone are read here, if it exists.
        """
        if test_ids is None and self.has(dataset, Split.TEST):
            test_file = CorpusFile(self.corpus_path(dataset, Split.TEST))
            test_ids = {record.id for record in test_file.questions()}
        if test_ids:
            overlap = [item_id for item_id in pool_ids if item_id in test_ids]
            if overlap:
                raise DataError(
                    f"{dataset.value}: pool overlaps test split on {len(overlap)} ids "
                    f"(e.g. {overlap[0]!r})"
                )
