"""Scoring, reports, the ablation table, and subject breakdowns.

Accuracy is exact-match over canonical labels. Percentages are computed in
decimal arithmetic and rounded half-up to one place, so 0.7255 reports as
72.6, never 72.5 by way of binary float rounding. The ablation table lists
the prompting stages in ladder order with the delta each rung adds over the
previous one; rows are comparable only when they come from the same dataset,
split, and configuration fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .corpus import Dataset, MMLU_MED_SUBJECTS, McqItem, Split, write_atomically
from .errors import DataError, IncompleteRunError
from .parsing import INVALID
from .runner import LADDER, Stage

__all__ = [
    "percent",
    "Accuracy",
    "accuracy",
    "scored_rows",
    "build_report",
    "ablation",
    "render_ablation_text",
    "subject_breakdown",
    "REPORT_SCHEMA",
]

REPORT_SCHEMA = 1


def percent(numerator: int, denominator: int) -> float:
    """numerator/denominator as a percentage, half-up to one decimal place."""
    if denominator <= 0:
        raise DataError(f"percentage over a non-positive denominator {denominator}")
    value = (Decimal(numerator) * 100 / Decimal(denominator)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP
    )
    return float(value)


@dataclass(frozen=True)
class Accuracy:
    n_correct: int
    n_total: int

    @property
    def percent(self) -> float:
        return percent(self.n_correct, self.n_total)


def accuracy(rows: list[dict], expected_ids: list[str]) -> Accuracy:
    """Exact-match accuracy over the trace rows of `expected_ids`.

    The rows must cover every id exactly once; anything missing is reported
    as an incomplete run rather than silently scored.
    """
    seen: dict[str, bool] = {}
    for row in rows:
        item_id = row["item_id"]
        if item_id in seen:
            raise DataError(f"duplicate trace row for {item_id}")
        seen[item_id] = bool(row["correct"])
    missing = [item_id for item_id in expected_ids if item_id not in seen]
    if missing:
        raise IncompleteRunError(
            f"{len(missing)} of {len(expected_ids)} items unscored (first: {missing[:3]})"
        )
    seen = {item_id: seen[item_id] for item_id in expected_ids}
    if not seen:
        raise DataError("no trace rows to score")
    return Accuracy(n_correct=sum(seen.values()), n_total=len(seen))


def scored_rows(rows: list[dict], expected_ids: list[str]) -> list[dict]:
    """The rows a report scores: those of `expected_ids`."""
    wanted = set(expected_ids)
    return [row for row in rows if row["item_id"] in wanted]


def build_report(
    rows: list[dict],
    dataset: Dataset,
    stage: Stage,
    fingerprint: str,
    expected_ids: list[str],
) -> dict:
    """Summary of one stage run over the test split, JSON-serializable. Every
    count covers only the rows of `expected_ids`."""
    acc = accuracy(rows, expected_ids)
    rows = scored_rows(rows, expected_ids)
    return {
        "schema": REPORT_SCHEMA,
        "dataset": Dataset(dataset).value,
        "split": Split.TEST.value,
        "stage": Stage(stage).value,
        "fingerprint": fingerprint,
        "n_items": acc.n_total,
        "n_correct": acc.n_correct,
        "accuracy_percent": acc.percent,
        "invalid_count": sum(1 for row in rows if row["decision"] == INVALID),
        "tie_broken_count": sum(1 for row in rows if row.get("tie_broken")),
        "n_calls": sum(row.get("n_calls", 0) for row in rows),
    }


def write_report(report: dict, path: str | Path) -> None:
    """Replace `path` with `report` as indented JSON, keys sorted."""
    write_atomically(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def ablation(reports: list[dict]) -> dict:
    """Ladder-ordered ablation table with per-rung deltas.

    All reports must describe the same dataset, split, and configuration
    fingerprint, and every ladder stage must appear exactly once.
    """
    if not reports:
        raise DataError("no reports to tabulate")
    datasets = {r["dataset"] for r in reports}
    splits = {r["split"] for r in reports}
    fingerprints = {r["fingerprint"] for r in reports}
    if len(datasets) > 1 or len(splits) > 1:
        raise DataError(f"reports mix datasets/splits: {sorted(datasets)} {sorted(splits)}")
    if len(fingerprints) > 1:
        raise DataError("reports were produced under different configurations")
    by_stage = {}
    for r in reports:
        if r["stage"] in by_stage:
            raise DataError(f"stage {r['stage']} appears twice")
        by_stage[r["stage"]] = r
    missing = [s.value for s in LADDER if s.value not in by_stage]
    if missing:
        raise DataError(f"ablation needs every stage; missing {missing}")

    rows = []
    previous = None
    for stage in LADDER:
        r = by_stage[stage.value]
        pct = r["accuracy_percent"]
        delta = None if previous is None else round(pct - previous, 1)
        rows.append(
            {
                "stage": stage.value,
                "accuracy_percent": pct,
                "delta": delta,
                "n_items": r["n_items"],
                "n_correct": r["n_correct"],
            }
        )
        previous = pct
    return {
        "schema": REPORT_SCHEMA,
        "dataset": reports[0]["dataset"],
        "split": reports[0]["split"],
        "fingerprint": reports[0]["fingerprint"],
        "rows": rows,
    }


def render_ablation_text(table: dict) -> str:
    """Fixed-width text rendering of an ablation table."""
    header = f"{table['dataset']} / {table['split']}"
    lines = [header, "-" * len(header)]
    name_width = max(len(row["stage"]) for row in table["rows"])
    for row in table["rows"]:
        delta = "     " if row["delta"] is None else f"{row['delta']:+5.1f}"
        lines.append(
            f"{row['stage']:<{name_width}}  {row['accuracy_percent']:5.1f}  {delta}"
            f"  ({row['n_correct']}/{row['n_items']})"
        )
    return "\n".join(lines) + "\n"


def subject_breakdown(rows: list[dict], items: list[McqItem]) -> dict:
    """Per-subject accuracy for the aggregated benchmark.

    Only the aggregated dataset carries subjects; every item must belong to
    one of its known subjects and every row must match a scored item.
    """
    items_by_id = {item.id: item for item in items}
    per_subject: dict[str, list[bool]] = {}
    for row in rows:
        item = items_by_id.get(row["item_id"])
        if item is None:
            raise DataError(f"trace row {row['item_id']} has no matching item")
        if item.dataset is not Dataset.MMLU_MED:
            raise DataError(f"subject breakdown applies to mmlu_med, not {item.dataset.value}")
        if item.subject not in MMLU_MED_SUBJECTS:
            raise DataError(f"{item.id}: unknown subject {item.subject!r}")
        per_subject.setdefault(item.subject, []).append(bool(row["correct"]))
    if not per_subject:
        raise DataError("no rows to break down")
    subjects = {}
    total_correct = 0
    total = 0
    for subject in sorted(per_subject):
        marks = per_subject[subject]
        n_correct = sum(marks)
        subjects[subject] = {
            "n_items": len(marks),
            "n_correct": n_correct,
            "accuracy_percent": percent(n_correct, len(marks)),
        }
        total_correct += n_correct
        total += len(marks)
    return {
        "subjects": subjects,
        "overall": {
            "n_items": total,
            "n_correct": total_correct,
            "accuracy_percent": percent(total_correct, total),
        },
    }
