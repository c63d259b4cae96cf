"""Scoring arithmetic, report assembly, ablation tables, subject breakdowns."""

import json
from dataclasses import replace

import pytest

from conftest import make_item
from medharness.corpus import Dataset, MMLU_MED_SUBJECTS
from medharness.errors import DataError, IncompleteRunError
from medharness.metrics import (
    Accuracy,
    ablation,
    accuracy,
    build_report,
    percent,
    render_ablation_text,
    subject_breakdown,
    write_report,
)
from medharness.parsing import INVALID
from medharness.runner import LADDER, Stage


def row(i, correct, decision="A", **extra):
    base = {"item_id": f"test-{i:05d}", "correct": correct, "decision": decision,
            "n_calls": 1}
    base.update(extra)
    return base


class TestPercent:
    @pytest.mark.parametrize("n,d,expected", [
        (584, 1000, 58.4),
        (5, 8, 62.5),
        (1, 3, 33.3),
        (2, 3, 66.7),
        (7255, 10000, 72.6),
        (7254, 10000, 72.5),
        (0, 7, 0.0),
        (7, 7, 100.0),
        (1, 1600, 0.1),
        (1, 4000, 0.0),
    ])
    def test_half_up_rounding(self, n, d, expected):
        assert percent(n, d) == expected

    def test_zero_denominator(self):
        with pytest.raises(DataError, match="denominator"):
            percent(1, 0)

    def test_accuracy_dataclass(self):
        acc = Accuracy(n_correct=583, n_total=1273)
        assert acc.percent == 45.8


class TestAccuracy:
    def test_counts_correct_rows(self):
        rows = [row(0, True), row(1, False), row(2, True)]
        acc = accuracy(rows, ["test-00000", "test-00001", "test-00002"])
        assert (acc.n_correct, acc.n_total) == (2, 3)

    def test_duplicate_row_rejected(self):
        rows = [row(0, True), row(0, True)]
        with pytest.raises(DataError, match="duplicate trace row"):
            accuracy(rows, ["test-00000"])

    def test_missing_expected_id_is_incomplete(self):
        rows = [row(0, True)]
        with pytest.raises(IncompleteRunError, match="1 of 2 items unscored"):
            accuracy(rows, expected_ids=["test-00000", "test-00001"])

    def test_extra_rows_outside_expectation_ignored(self):
        rows = [row(0, True), row(1, False)]
        acc = accuracy(rows, expected_ids=["test-00000"])
        assert (acc.n_correct, acc.n_total) == (1, 1)

    def test_empty_rows_rejected(self):
        with pytest.raises(DataError, match="no trace rows"):
            accuracy([], [])


class TestBuildReport:
    def test_fields(self, tmp_path):
        rows = [
            row(0, True, n_calls=5),
            row(1, False, decision=INVALID, n_calls=5),
            row(2, True, tie_broken=True, n_calls=9),
        ]
        report = build_report(rows, Dataset.MEDQA, Stage.ENSEMBLE, "f" * 16,
                              ["test-00000", "test-00001", "test-00002"])
        assert report == {
            "schema": 1,
            "dataset": "medqa",
            "split": "test",
            "stage": "ensemble",
            "fingerprint": "f" * 16,
            "n_items": 3,
            "n_correct": 2,
            "accuracy_percent": 66.7,
            "invalid_count": 1,
            "tie_broken_count": 1,
            "n_calls": 19,
        }
        path = tmp_path / "deep" / "report.json"
        write_report(report, path)
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_counts_cover_only_the_expected_rows(self):
        rows = [
            row(0, True, n_calls=5),
            row(1, False, decision=INVALID, n_calls=5),
            row(2, True, tie_broken=True, n_calls=9),
        ]
        report = build_report(rows, Dataset.MEDQA, Stage.ENSEMBLE, "f" * 16,
                              expected_ids=["test-00002"])
        assert (report["n_items"], report["n_correct"], report["invalid_count"],
                report["tie_broken_count"], report["n_calls"]) == (1, 1, 0, 1, 9)


def stage_report(stage, pct, n_correct, n_items=1000, dataset="medqa",
                 split="test", fingerprint="f" * 16):
    return {
        "schema": 1, "dataset": dataset, "split": split, "stage": stage,
        "fingerprint": fingerprint, "n_items": n_items, "n_correct": n_correct,
        "accuracy_percent": pct, "invalid_count": 0, "tie_broken_count": 0,
        "n_calls": n_items,
    }


def full_ladder_reports(**kwargs):
    percents = [58.4, 61.5, 66.6, 69.5, 72.6]
    return [
        stage_report(stage.value, pct, round(pct * 10), **kwargs)
        for stage, pct in zip(LADDER, percents)
    ]


class TestAblation:
    def test_ladder_order_and_deltas(self):
        table = ablation(list(reversed(full_ladder_reports())))
        assert [r["stage"] for r in table["rows"]] == [s.value for s in LADDER]
        assert [r["accuracy_percent"] for r in table["rows"]] == [
            58.4, 61.5, 66.6, 69.5, 72.6]
        assert [r["delta"] for r in table["rows"]] == [None, 3.1, 5.1, 2.9, 3.1]
        assert table["dataset"] == "medqa"

    def test_mixed_datasets_rejected(self):
        reports = full_ladder_reports()
        reports[2]["dataset"] = "medmcqa"
        with pytest.raises(DataError, match="mix datasets"):
            ablation(reports)

    def test_mixed_fingerprints_rejected(self):
        reports = full_ladder_reports()
        reports[1]["fingerprint"] = "0" * 16
        with pytest.raises(DataError, match="different configurations"):
            ablation(reports)

    def test_duplicate_stage_rejected(self):
        reports = full_ladder_reports()
        reports[1]["stage"] = "zero_shot"
        with pytest.raises(DataError, match="appears twice"):
            ablation(reports)

    def test_missing_stage_rejected(self):
        reports = full_ladder_reports()[:-1]
        with pytest.raises(DataError, match="missing \\['ensemble'\\]"):
            ablation(reports)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no reports"):
            ablation([])

    def test_negative_delta_preserved(self):
        # A rung may land below the previous one; the table must not hide it.
        percents = [72.6, 77.3, 75.2, 78.7, 81.6]
        reports = [stage_report(s.value, p, round(p * 10), dataset="mmlu_med")
                   for s, p in zip(LADDER, percents)]
        table = ablation(reports)
        assert [r["delta"] for r in table["rows"]] == [None, 4.7, -2.1, 3.5, 2.9]

    def test_render_text_shape(self):
        text = render_ablation_text(ablation(full_ladder_reports()))
        lines = text.splitlines()
        assert lines[0] == "medqa / test"
        assert len(lines) == 2 + 5
        assert lines[2].startswith("zero_shot")
        assert "58.4" in lines[2] and "+ 3.1" not in lines[2]
        assert "+3.1" in lines[3]
        assert text.endswith("\n")


class TestSubjectBreakdown:
    def make_rows_and_items(self):
        items = []
        rows = []
        # Two subjects, different sizes and accuracies.
        for i, (subject, correct) in enumerate([
            ("anatomy", True), ("anatomy", False), ("anatomy", True),
            ("virology", True),
        ]):
            item = make_item(i, dataset=Dataset.MMLU_MED, subject=subject)
            items.append(item)
            rows.append({"item_id": item.id, "correct": correct, "decision": "A",
                         "n_calls": 1})
        return rows, items

    def test_per_subject_and_overall(self):
        rows, items = self.make_rows_and_items()
        out = subject_breakdown(rows, items)
        assert out["subjects"]["anatomy"] == {
            "n_items": 3, "n_correct": 2, "accuracy_percent": 66.7}
        assert out["subjects"]["virology"] == {
            "n_items": 1, "n_correct": 1, "accuracy_percent": 100.0}
        assert out["overall"] == {"n_items": 4, "n_correct": 3,
                                  "accuracy_percent": 75.0}
        total = sum(s["n_correct"] for s in out["subjects"].values())
        assert total == out["overall"]["n_correct"]

    def test_non_mmlu_rejected(self):
        item = make_item(0)
        with pytest.raises(DataError, match="applies to mmlu_med"):
            subject_breakdown([{"item_id": item.id, "correct": True,
                                "decision": "A"}], [item])

    def test_unknown_subject_rejected(self):
        # Built without validation, standing in for a corrupted items file.
        good = make_item(0, dataset=Dataset.MMLU_MED, subject="anatomy")
        item = replace(good, subject="astrology")
        with pytest.raises(DataError, match="unknown subject"):
            subject_breakdown([{"item_id": item.id, "correct": True,
                                "decision": "A"}], [item])

    def test_unmatched_row_rejected(self):
        rows, items = self.make_rows_and_items()
        with pytest.raises(DataError, match="no matching item"):
            subject_breakdown(rows + [{"item_id": "test-09999", "correct": True,
                                       "decision": "A"}], items)


def test_mmlu_subject_list():
    assert len(MMLU_MED_SUBJECTS) == 9
    assert "anatomy" in MMLU_MED_SUBJECTS and "virology" in MMLU_MED_SUBJECTS
