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
a manifest recording counts, the source checksum and the normalized file's
SHA-256. Records that fail validation are excluded and counted, never
silently dropped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import string
import tempfile
import threading
from array import array
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
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
    "write_atomically",
    "write_headed",
    "read_headed",
    "AppendLog",
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


# canonical_labels(n) for every n it can be equal to.
_CANONICAL = {n: canonical_labels(n) for n in range(len(_LETTERS) + 1)}


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
    # The options' labels in order, set once from `options`; not part of the
    # item's value, so `==`, `hash`, `repr` and the JSON leave it out.
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(label for label, _ in self.options))

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
        labels = self.labels
        if len(labels) < 2:
            raise DataError(f"{self.id}: needs at least 2 options")
        if labels != _CANONICAL.get(len(labels)):
            if len(set(labels)) != len(labels):
                raise DataError(f"{self.id}: duplicate option labels {labels}")
            raise DataError(f"{self.id}: labels {labels} not in canonical order "
                            f"{canonical_labels(len(labels))}")
        # Canonical labels are distinct, so this is the gold appearing once.
        if self.gold not in labels:
            raise DataError(f"{self.id}: gold {self.gold!r} not among labels {labels}")
        if not all(text.strip() for _, text in self.options):
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
        """The validated item a normalized line holds. A missing key, an
        unknown dataset or split, or options that are not iterable raise as
        decoding them does; an option that is not a two-element list or a
        field that is not a string is a DataError."""
        item_id = obj["id"]
        dataset = _member(Dataset, _DATASETS, obj["dataset"])
        split = _member(Split, _SPLITS, obj["split"])
        question = obj["question"]
        options, mistyped = [], None
        for option in obj["options"]:
            if type(option) is not list or len(option) != 2:
                raise DataError(f"{item_id}: options must be [label, text] pairs, "
                                f"got {option!r}")
            label, text = option
            options.append((label, text))
            if mistyped is None and (type(label) is not str or type(text) is not str):
                mistyped = option
        gold = obj["gold"]
        subject, context = obj.get("subject"), obj.get("context")
        if type(item_id) is not str:
            raise DataError(f"id must be a string, got {item_id!r}")
        if type(question) is not str:
            raise DataError(f"{item_id}: question must be a string, got {question!r}")
        if mistyped is not None:
            raise DataError(f"{item_id}: option labels and texts must be strings, got {mistyped!r}")
        if type(gold) is not str:
            raise DataError(f"{item_id}: gold must be a string, got {gold!r}")
        for name, value in (("subject", subject), ("context", context)):
            if value is not None and type(value) is not str:
                raise DataError(f"{item_id}: {name} must be a string, got {value!r}")
        item = cls(id=item_id, dataset=dataset, split=split, question=question,
                   options=tuple(options), gold=gold, subject=subject, context=context)
        item.validate()
        return item


def _member(enum, members: dict, value):
    """`enum(value)` by one dict lookup when `value` is a member's string."""
    member = members.get(value) if type(value) is str else None
    return enum(value) if member is None else member


_DATASETS = {member.value: member for member in Dataset}
_SPLITS = {member.value: member for member in Split}


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
    # The SHA-256 of the normalized file `CorpusStore.save` wrote.
    normalized_sha256: str | None = None


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


def write_atomically(path: str | Path, text: str) -> None:
    """Replace `path` with the UTF-8 `text` (see `replace_atomically`)."""
    with replace_atomically(path) as f:
        f.write(text.encode("utf-8"))


def write_headed(path: str | Path, header: dict, rows, encode=json.dumps) -> None:
    """Replace `path` with `header`'s JSON, keys sorted, then one JSON line
    per row, keys in the row's own order; `encode` turns a row into its line."""
    lines = [json.dumps(header, sort_keys=True)] + [encode(row) for row in rows]
    write_atomically(path, "\n".join(lines) + "\n")


def read_headed(path: str | Path) -> tuple[dict, list]:
    """The header and rows `write_headed` wrote; ValueError if the file is not
    UTF-8, the header is not an object, or the header or a row does not parse."""
    first, *rows = Path(path).read_text(encoding="utf-8").split("\n")
    header = json.loads(first)
    if not isinstance(header, dict):
        raise ValueError(f"header is a {type(header).__name__}, not a JSON object")
    return header, json.loads("[" + ",".join(row for row in rows if row.strip()) + "]")


# One encoder for every append log: `json.dumps` with options builds one per call.
_encode_row = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


class AppendLog:
    """An append-only JSON-lines file, read once on construction.

    `rows` holds what `check` returns for each row; `check` raises ValueError
    to refuse one. A last line that lacks its newline and does not parse is a
    write cut short by a crash and is skipped; any other line that does not
    parse or that `check` refuses goes to `corrupt(path, lineno, exc)`, which
    may raise. The first `appending()` cuts that torn line off, or gives a
    last row its missing newline.

    A writer appends through one `appending()` handle for as long as it
    writes, not one per row: a stage its trace, a command its CoT cache.
    Each row is still one unbuffered write, on disk when `append` returns.
    """

    def __init__(self, path: str | Path, check, corrupt):
        self.path = Path(path)
        self.rows: list = []
        self._mend: tuple[int, bytes] | None = None
        self._lock = threading.Lock()
        if not self.path.exists():
            return
        offset, line = 0, b"\n"
        with open(self.path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    # Rows are written as UTF-8; `json.loads` of bytes would
                    # guess the encoding of each one.
                    row = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    if not line.endswith(b"\n"):
                        self._mend = (start, b"")
                        return
                    corrupt(self.path, lineno, exc)
                    continue
                try:
                    self.rows.append(check(row))
                except ValueError as exc:
                    corrupt(self.path, lineno, exc)
        if not line.endswith(b"\n"):
            self._mend = (offset, b"\n")

    @contextmanager
    def appending(self):
        """Open the file once and yield `append(row)`, which writes the row as
        one JSON line, keys sorted and non-ASCII kept, in one unbuffered write
        under the log's lock."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab", buffering=0) as f:
            with self._lock:
                if self._mend is not None:
                    f.truncate(self._mend[0])
                    f.write(self._mend[1])
                    self._mend = None

            def append(row) -> None:
                line = (_encode_row(row) + "\n").encode("utf-8")
                with self._lock:
                    f.write(line)

            yield append


def write_normalized(items: list[McqItem], path: str | Path) -> str:
    """Replace `path` with the items, one UTF-8 JSON object per line (stable
    key order); return the SHA-256 of the bytes written."""
    text = "".join(item.canonical_json() + "\n" for item in items)
    write_atomically(path, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class PoolQuestion(NamedTuple):
    """The two fields of a pool item that `build_index` embeds."""

    id: str
    question: str


class CorpusFile:
    """A normalized corpus file, read once: its bytes and their SHA-256.

    `sha256` digests exactly the bytes held. Items are lines split on "\n"
    alone, never on the other separators `str.splitlines` knows, so a raw
    U+2028 inside a question stays in its line; the "\r" of a CRLF ending
    is whitespace. A blank line holds no item. A line is named by the byte
    offset it starts at, so reading one item slices its line alone; only
    `item_lines`, for callers that read every item, splits the file, and a
    pass of it that reaches the end keeps the item lines' offsets, so
    `offsets` need not split it again. The whole file is checked to be
    UTF-8 on reading, so every line decodes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.exists():
            raise DataError(f"normalized corpus file missing: {self.path}")
        self.data = self.path.read_bytes()
        self.sha256 = hashlib.sha256(self.data).hexdigest()
        if not self.data.isascii():
            try:
                self.data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{self.path}: not UTF-8: {exc}") from exc
        self._offsets: array | None = None

    def item_lines(self) -> Iterator[tuple[int, int, str]]:
        """The line index, byte offset and text of each item's line, in file order."""
        ascii_only = self.data.isascii()
        offsets = array("q")
        offset = 0
        for i, line in enumerate(self.data.decode("utf-8").split("\n")):
            if line.strip():
                offsets.append(offset)
                yield i, offset, line
            offset += 1 + (len(line) if ascii_only else len(line.encode("utf-8")))
        self._offsets = offsets

    def offsets(self) -> Sequence[int]:
        """The byte offset of each item's line, in file order."""
        if self._offsets is None:
            for _ in self.item_lines():
                pass
        return self._offsets

    def lineno(self, offset: int) -> int:
        """The 1-based number of the line starting at byte `offset`."""
        return self.data.count(b"\n", 0, offset) + 1

    def line(self, offset: int) -> str:
        """The stripped line starting at byte `offset`; DataError unless one starts there."""
        data = self.data
        if (type(offset) is not int or not 0 <= offset < len(data)
                or (offset and data[offset - 1] != 0x0A)):
            raise DataError(f"{self.path}: no line starts at byte {offset!r}")
        end = data.find(b"\n", offset)
        return data[offset:end if end >= 0 else len(data)].decode("utf-8").strip()

    def parse(self, offset: int, line: str | None = None) -> McqItem:
        """The validated item on the line starting at byte `offset`; `line`
        is that line, stripped, when the caller has it."""
        try:
            return McqItem.from_json_obj(json.loads(self.line(offset) if line is None else line))
        except (KeyError, TypeError, DataError, ValueError) as exc:
            raise DataError(f"{self.path}: line {self.lineno(offset)}: {exc}") from exc

    def questions(self) -> list[PoolQuestion]:
        """Each item's id and question, in file order, ids unique; no `McqItem` is built."""
        records = []
        lines = []
        for i, _, line in self.item_lines():
            try:
                obj = json.loads(line.strip())
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
            lines.append(i)
        _check_unique_ids([record.id for record in records], self.path, lines)
        return records


def read_normalized(path: str | Path | CorpusFile) -> list[McqItem]:
    """Every item of a normalized corpus file, validated, ids unique.

    `path` may be a CorpusFile already read; its bytes are parsed as held.
    """
    source = path if isinstance(path, CorpusFile) else CorpusFile(path)
    lines, items = [], []
    for i, offset, line in source.item_lines():
        items.append(source.parse(offset, line.strip()))
        lines.append(i)
    _check_unique_ids([item.id for item in items], source.path, lines)
    return items


class PoolView(Mapping):
    """Pool items by id, each parsed from its line on first lookup.

    A view maps the ids it was told to the byte offsets of their lines in
    `source`: every item's when given the file's ids in file order (`learn`),
    as `CorpusFile.questions` or an index built from the same bytes lists
    them; or one id at a time at a known offset (`place`), as the exemplar
    manifest records them. An offset that is out of range or does not start
    a line is refused, and every parse checks that the line holds a valid
    item with that id.
    """

    def __init__(self, source: CorpusFile):
        self._source = source
        self._offsets: dict[str, int] = {}
        self._items: dict[str, McqItem] = {}

    def learn(self, ids: list[str]) -> None:
        """Map every item: `ids` are the file's ids in file order, and must
        put each id already placed on its line."""
        offsets = self._source.offsets()
        if len(offsets) != len(ids):
            raise DataError(f"{self._source.path}: {len(offsets)} items, expected {len(ids)}")
        learned = dict(zip(ids, offsets))
        for item_id, offset in self._offsets.items():
            if learned.get(item_id) != offset:
                raise DataError(f"{self._source.path}: line {self._source.lineno(offset)} holds "
                                f"{item_id!r}, which the pool's ids put elsewhere")
        self._offsets = learned

    def place(self, item_id: str, offset: int) -> None:
        """Map `item_id` to the line starting at byte `offset` and parse that
        line; DataError unless it holds the item."""
        self._items[item_id] = self._parse(item_id, offset)
        self._offsets[item_id] = offset

    def _parse(self, item_id: str, offset: int) -> McqItem:
        item = self._source.parse(offset)
        if item.id != item_id:
            raise DataError(f"{self._source.path}: line {self._source.lineno(offset)} holds "
                            f"{item.id!r}, expected {item_id!r}")
        return item

    def __getitem__(self, item_id: str) -> McqItem:
        item = self._items.get(item_id)
        if item is None:
            item = self._items[item_id] = self._parse(item_id, self._offsets[item_id])
        return item

    def offset(self, item_id: str) -> int:
        """The byte offset of the line `self[item_id]` is parsed from."""
        return self._offsets[item_id]

    def line(self, item_id: str) -> str:
        """The stripped line `self[item_id]` is parsed from."""
        return self._source.line(self._offsets[item_id])

    def __contains__(self, item_id) -> bool:
        return item_id in self._offsets

    def __iter__(self) -> Iterator[str]:
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


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
        """Write the split, then its manifest with the split's `normalized_sha256`."""
        dataset, split = result.manifest.dataset, result.manifest.split
        digest = write_normalized(result.items, self.corpus_path(dataset, split))
        manifest = replace(result.manifest, normalized_sha256=digest)
        write_atomically(self.manifest_path(dataset, split),
                         json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
        return self.corpus_path(dataset, split)

    def load(self, dataset: Dataset, split: Split) -> list[McqItem]:
        return read_normalized(self.split_file(dataset, split))

    def split_file(self, dataset: Dataset, split: Split) -> CorpusFile:
        """A normalized split, read once and, where its ingest manifest exists,
        refused unless it holds the bytes that manifest's `normalized_sha256`
        records."""
        source = CorpusFile(self.corpus_path(dataset, split))
        manifest = self.manifest_path(dataset, split)
        if manifest.exists():
            try:
                recorded = json.loads(manifest.read_text(encoding="utf-8")).get("normalized_sha256")
            except (ValueError, AttributeError) as exc:
                raise DataError(f"{manifest}: unreadable ingest manifest: {exc!r}") from exc
            if recorded != source.sha256:
                raise DataError(f"{source.path} is not the file {manifest} records "
                                f"(normalized_sha256 {recorded or 'not recorded'}); "
                                f"re-ingest the split")
        return source

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
        return self.split_file(dataset, split)

    def check_disjoint(self, dataset: Dataset, pool_ids: list[str],
                       test_ids: set[str] | None = None) -> None:
        """Raise DataError if a pool id is a test id.

        `test_ids` are the ids of the whole test split when the caller has
        read it already; otherwise its ids alone are read here, if it exists.
        """
        if test_ids is None and self.has(dataset, Split.TEST):
            test_ids = {record.id for record in self.split_file(dataset, Split.TEST).questions()}
        if test_ids:
            overlap = [item_id for item_id in pool_ids if item_id in test_ids]
            if overlap:
                raise DataError(
                    f"{dataset.value}: pool overlaps test split on {len(overlap)} ids "
                    f"(e.g. {overlap[0]!r})"
                )
