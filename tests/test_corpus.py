"""Ingestion, normalization, and corpus store behavior."""

import dataclasses
import json
import re

import pytest

from conftest import make_item
from medharness.corpus import (
    CorpusFile,
    CorpusStore,
    Dataset,
    McqItem,
    PoolView,
    Split,
    canonical_labels,
    load_dataset,
    read_headed,
    read_normalized,
    source_checksum,
    write_headed,
    write_normalized,
)
from medharness.errors import DataError


def write_medqa_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def medqa_record(i, answer="A"):
    return {
        "question": f"Sample stem number {i}?",
        "options": {"A": "opt a", "B": "opt b", "C": "opt c", "D": "opt d"},
        "answer_idx": answer,
        "answer": "opt a",
    }


class TestMedqa:
    def test_loads_items_with_positional_ids(self, tmp_path):
        src = tmp_path / "test.jsonl"
        write_medqa_jsonl(src, [medqa_record(0), medqa_record(1, answer="C")])
        result = load_dataset(Dataset.MEDQA, Split.TEST, src)
        assert [item.id for item in result.items] == ["test-00000", "test-00001"]
        assert result.items[0].labels == ("A", "B", "C", "D")
        assert result.items[1].gold == "C"
        assert result.manifest.item_count == 2
        assert result.manifest.checksum == source_checksum([src])

    def test_bad_records_rejected_not_fatal(self, tmp_path):
        src = tmp_path / "test.jsonl"
        good = medqa_record(0)
        missing_gold = medqa_record(1)
        del missing_gold["answer_idx"]
        with open(src, "w", encoding="utf-8") as f:
            f.write(json.dumps(good) + "\n")
            f.write("{not json\n")
            f.write(json.dumps(missing_gold) + "\n")
        result = load_dataset(Dataset.MEDQA, Split.TEST, src)
        assert len(result.items) == 1
        assert result.manifest.rejected_count == 2
        locations = {r.location for r in result.rejects}
        assert locations == {"line 2", "line 3"}


class TestMedmcqa:
    def test_cop_is_one_indexed(self, tmp_path):
        src = tmp_path / "dev.jsonl"
        rec = {
            "id": "uuid-1",
            "question": "Entrance exam stem?",
            "opa": "first",
            "opb": "second",
            "opc": "third",
            "opd": "fourth",
            "cop": 3,
            "subject_name": "Pathology",
        }
        write_medqa_jsonl(src, [rec])
        result = load_dataset(Dataset.MEDMCQA, Split.DEV, src)
        item = result.items[0]
        assert item.id == "uuid-1"
        assert item.gold == "C"
        assert item.gold_text == "third"
        assert item.subject == "Pathology"

    def test_cop_out_of_range_rejected(self, tmp_path):
        src = tmp_path / "dev.jsonl"
        rec = {"id": "x", "question": "q?", "opa": "a", "opb": "b",
               "opc": "c", "opd": "d", "cop": 0}
        write_medqa_jsonl(src, [rec])
        result = load_dataset(Dataset.MEDMCQA, Split.DEV, src)
        assert not result.items
        assert result.manifest.rejected_count == 1

    def test_non_object_and_bad_json_lines_rejected(self, tmp_path):
        src = tmp_path / "dev.jsonl"
        rec = {"id": "x", "question": "q?", "opa": "a", "opb": "b",
               "opc": "c", "opd": "d", "cop": 2}
        src.write_text("[1, 2]\n" + json.dumps(rec) + "\n{not json\n", encoding="utf-8")
        result = load_dataset(Dataset.MEDMCQA, Split.DEV, src)
        assert [item.id for item in result.items] == ["x"]
        assert result.manifest.rejected_count == 2
        assert {r.location for r in result.rejects} == {"line 1", "line 3"}

    def test_duplicate_id_names_the_source_file(self, tmp_path):
        src = tmp_path / "dev.jsonl"
        rec = {"id": "x", "question": "q?", "opa": "a", "opb": "b",
               "opc": "c", "opd": "d", "cop": 2}
        write_medqa_jsonl(src, [rec, rec])
        with pytest.raises(DataError, match=f"^{re.escape(str(src))}: duplicate item id 'x'$"):
            load_dataset(Dataset.MEDMCQA, Split.DEV, src)


class TestPubmedqa:
    def make_source(self, tmp_path, decisions):
        blob = {
            str(9000000 + i): {
                "QUESTION": f"Does intervention {i} help?",
                "CONTEXTS": [f"Background sentence {i}.", f"Results sentence {i}."],
                "final_decision": decision,
            }
            for i, decision in enumerate(decisions)
        }
        src = tmp_path / "test.json"
        src.write_text(json.dumps(blob), encoding="utf-8")
        return src

    def test_words_map_to_fixed_labels(self, tmp_path):
        src = self.make_source(tmp_path, ["yes", "no", "maybe"])
        result = load_dataset(Dataset.PUBMEDQA, Split.TEST, src)
        assert [item.gold for item in result.items] == ["A", "B", "C"]
        for item in result.items:
            assert item.options == (("A", "yes"), ("B", "no"), ("C", "maybe"))
            assert item.context == f"Background sentence {item.id[-1]}." \
                                   f"\nResults sentence {item.id[-1]}."

    def test_items_sorted_by_pmid(self, tmp_path):
        blob = {
            "900002": {"QUESTION": "B?", "CONTEXTS": ["ctx"], "final_decision": "no"},
            "900001": {"QUESTION": "A?", "CONTEXTS": ["ctx"], "final_decision": "yes"},
        }
        src = tmp_path / "test.json"
        src.write_text(json.dumps(blob), encoding="utf-8")
        result = load_dataset(Dataset.PUBMEDQA, Split.TEST, src)
        assert [item.id for item in result.items] == ["900001", "900002"]

    def test_unknown_decision_rejected(self, tmp_path):
        src = self.make_source(tmp_path, ["yes", "unsure"])
        result = load_dataset(Dataset.PUBMEDQA, Split.TEST, src)
        assert len(result.items) == 1
        assert result.manifest.rejected_count == 1

    def test_missing_context_rejected(self, tmp_path):
        blob = {"900001": {"QUESTION": "A?", "CONTEXTS": [], "final_decision": "yes"}}
        src = tmp_path / "test.json"
        src.write_text(json.dumps(blob), encoding="utf-8")
        result = load_dataset(Dataset.PUBMEDQA, Split.TEST, src)
        assert not result.items
        assert result.manifest.rejected_count == 1


MMLU_SUBJECTS_SAMPLE = ["anatomy", "clinical_knowledge", "college_biology",
                        "college_medicine", "high_school_biology", "medical_genetics",
                        "nutrition", "professional_medicine", "virology"]


def write_mmlu_csvs(root, tag, rows_per_subject=2, nested=False):
    target = root / tag if nested else root
    target.mkdir(parents=True, exist_ok=True)
    for subject in MMLU_SUBJECTS_SAMPLE:
        lines = []
        for r in range(rows_per_subject):
            lines.append(f"{subject} stem {r}?,one,two,three,four,B")
        (target / f"{subject}_{tag}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestMmluMed:
    def test_flat_layout(self, tmp_path):
        write_mmlu_csvs(tmp_path, "test")
        result = load_dataset(Dataset.MMLU_MED, Split.TEST, tmp_path)
        assert len(result.items) == 2 * 9
        anatomy = [item for item in result.items if item.subject == "anatomy"]
        assert [item.id for item in anatomy] == ["anatomy-test-0000", "anatomy-test-0001"]
        assert all(item.gold == "B" for item in result.items)

    def test_nested_layout_and_dev_merges_val(self, tmp_path):
        write_mmlu_csvs(tmp_path, "dev", rows_per_subject=1, nested=True)
        write_mmlu_csvs(tmp_path, "val", rows_per_subject=2, nested=True)
        result = load_dataset(Dataset.MMLU_MED, Split.DEV, tmp_path)
        assert len(result.items) == (1 + 2) * 9

    def test_train_split_refused(self, tmp_path):
        write_mmlu_csvs(tmp_path, "test")
        with pytest.raises(DataError, match="no train split"):
            load_dataset(Dataset.MMLU_MED, Split.TRAIN, tmp_path)

    def test_missing_subject_file_fails(self, tmp_path):
        write_mmlu_csvs(tmp_path, "test")
        (tmp_path / "virology_test.csv").unlink()
        with pytest.raises(DataError, match="virology_test.csv"):
            load_dataset(Dataset.MMLU_MED, Split.TEST, tmp_path)

    def test_bad_row_rejected(self, tmp_path):
        write_mmlu_csvs(tmp_path, "test", rows_per_subject=1)
        path = tmp_path / "anatomy_test.csv"
        path.write_text("only,four,columns,here\n", encoding="utf-8")
        result = load_dataset(Dataset.MMLU_MED, Split.TEST, tmp_path)
        assert result.manifest.rejected_count == 1
        assert len(result.items) == 8


class TestChecksum:
    def test_multi_file_checksum_order_independent(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("aaa", encoding="utf-8")
        b.write_text("bbb", encoding="utf-8")
        assert source_checksum([a, b]) == source_checksum([b, a])
        assert source_checksum([a]) != source_checksum([a, b])


class TestValidation:
    def test_labels_must_be_canonical_order(self):
        item = McqItem(
            id="x", dataset=Dataset.MEDQA, split=Split.TEST, question="q?",
            options=(("B", "b"), ("A", "a"), ("C", "c"), ("D", "d")), gold="A",
        )
        with pytest.raises(DataError, match="canonical order"):
            item.validate()

    def test_gold_must_be_a_label(self):
        item = McqItem(
            id="x", dataset=Dataset.MEDQA, split=Split.TEST, question="q?",
            options=(("A", "a"), ("B", "b"), ("C", "c"), ("D", "d")), gold="E",
        )
        with pytest.raises(DataError, match="gold"):
            item.validate()

    def test_blank_option_text_rejected(self):
        item = McqItem(
            id="x", dataset=Dataset.MEDQA, split=Split.TEST, question="q?",
            options=(("A", "a"), ("B", "  "), ("C", "c"), ("D", "d")), gold="A",
        )
        with pytest.raises(DataError, match="blank"):
            item.validate()

    def test_pubmedqa_requires_the_three_words(self):
        item = McqItem(
            id="x", dataset=Dataset.PUBMEDQA, split=Split.TEST, question="q?",
            options=(("A", "yes"), ("B", "no"), ("C", "unsure")), gold="A",
            context="ctx",
        )
        with pytest.raises(DataError, match="words"):
            item.validate()

    def test_pubmedqa_words_valid_in_any_order(self):
        # A shuffled presentation keeps the same three words under new labels.
        item = McqItem(
            id="x", dataset=Dataset.PUBMEDQA, split=Split.TEST, question="q?",
            options=(("A", "maybe"), ("B", "yes"), ("C", "no")), gold="B",
            context="ctx",
        )
        item.validate()

    def test_medqa_requires_four_options(self):
        item = McqItem(
            id="x", dataset=Dataset.MEDQA, split=Split.TEST, question="q?",
            options=(("A", "a"), ("B", "b"), ("C", "c")), gold="A",
        )
        with pytest.raises(DataError, match="4 options"):
            item.validate()

    def test_canonical_labels(self):
        assert canonical_labels(4) == ("A", "B", "C", "D")
        assert canonical_labels(3) == ("A", "B", "C")


LETTER_OPTIONS = [["A", "a"], ["B", "b"], ["C", "c"], ["D", "d"]]
LABELS = "('A', 'B', 'C', 'D')"


class TestValidationMessages:
    """`McqItem.from_json_obj` refuses each fault with the same exception and
    message, byte for byte, in the same order: one case per check of
    `validate`, then the decoding faults before it."""

    @pytest.mark.parametrize("edit, error, message", [
        ({"id": ""}, DataError, "item id must be non-empty"),
        ({"question": ""}, DataError, "x: question must be non-empty"),
        ({"question": " \t"}, DataError, "x: question must be non-empty"),
        ({"options": [["A", "a"]]}, DataError, "x: needs at least 2 options"),
        ({"options": [["A", "a"], ["A", "b"], ["C", "c"], ["D", "d"]]}, DataError,
         "x: duplicate option labels ('A', 'A', 'C', 'D')"),
        ({"options": [["B", "b"], ["A", "a"], ["C", "c"], ["D", "d"]]}, DataError,
         f"x: labels ('B', 'A', 'C', 'D') not in canonical order {LABELS}"),
        ({"options": [["a", "a"], ["b", "b"], ["c", "c"], ["d", "d"]]}, DataError,
         f"x: labels ('a', 'b', 'c', 'd') not in canonical order {LABELS}"),
        ({"gold": "E"}, DataError, f"x: gold 'E' not among labels {LABELS}"),
        ({"gold": ""}, DataError, f"x: gold '' not among labels {LABELS}"),
        ({"options": [["A", "a"], ["B", " "], ["C", "c"], ["D", "d"]]}, DataError,
         "x: blank option text"),
        ({"dataset": "pubmedqa", "options": [["A", "yes"], ["B", "no"], ["C", "unsure"]],
          "context": "ctx"}, DataError,
         "x: PubMedQA options must be the words ('yes', 'no', 'maybe'), "
         "got ('yes', 'no', 'unsure')"),
        ({"dataset": "pubmedqa", "options": [["A", "yes"], ["B", "no"], ["C", "maybe"]]},
         DataError, "x: PubMedQA items need a non-empty context"),
        ({"dataset": "pubmedqa", "options": [["A", "yes"], ["B", "no"], ["C", "maybe"]],
          "context": " \n"}, DataError, "x: PubMedQA items need a non-empty context"),
        ({"options": LETTER_OPTIONS[:3]}, DataError, "x: MedQA items carry exactly 4 options"),
        ({"options": LETTER_OPTIONS + [["E", "e"]]}, DataError,
         "x: MedQA items carry exactly 4 options"),
        ({"dataset": "mmlu_med", "subject": "astrology"}, DataError,
         "x: unknown MMLU-Med subject 'astrology'"),
        ({"dataset": "mmlu_med"}, DataError, "x: unknown MMLU-Med subject None"),
        # Two faults: the check `validate` makes first names the item's fault.
        ({"question": "", "gold": "E"}, DataError, "x: question must be non-empty"),
        ({"options": [["B", "b"], ["A", " "], ["C", "c"], ["D", "d"]], "gold": "E"}, DataError,
         f"x: labels ('B', 'A', 'C', 'D') not in canonical order {LABELS}"),
        ({"gold": "E", "options": [["A", " "], ["B", "b"], ["C", "c"], ["D", "d"]]}, DataError,
         f"x: gold 'E' not among labels {LABELS}"),
        ({"options": LETTER_OPTIONS[:3] + [["D", ""]]}, DataError, "x: blank option text"),
        # Decoding faults, raised before any check.
        ({"dataset": "medical"}, ValueError, "'medical' is not a valid Dataset"),
        ({"split": "validation"}, ValueError, "'validation' is not a valid Split"),
        ({"options": 5}, TypeError, "'int' object is not iterable"),
        ({"options": [5, 6]}, TypeError, "cannot unpack non-iterable int object"),
        ({"options": [["A"], ["B", "b"]]}, ValueError,
         "not enough values to unpack (expected 2, got 1)"),
        ({"options": [["A", "a", "x"], ["B", "b"]]}, ValueError,
         "too many values to unpack (expected 2)"),
        ({"question": None, "options": 5}, TypeError, "'int' object is not iterable"),
    ])
    def test_each_fault_keeps_its_message(self, edit, error, message):
        obj = {"id": "x", "dataset": "medqa", "split": "test", "question": "Q?",
               "options": LETTER_OPTIONS, "gold": "A", **edit}
        with pytest.raises(error) as caught:
            McqItem.from_json_obj(obj)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("key", ["id", "dataset", "split", "question", "options", "gold"])
    def test_missing_key(self, key):
        obj = {"id": "x", "dataset": "medqa", "split": "test", "question": "Q?",
               "options": LETTER_OPTIONS, "gold": "A"}
        del obj[key]
        with pytest.raises(KeyError) as caught:
            McqItem.from_json_obj(obj)
        assert str(caught.value) == repr(key)

    def test_decoded_item_sets_every_field(self):
        item = make_item(0, subject="anatomy", context="ctx")
        decoded = McqItem.from_json_obj(json.loads(item.canonical_json()))
        assert vars(decoded) == vars(item)
        assert set(vars(decoded)) == {field.name for field in dataclasses.fields(McqItem)}

    def test_two_character_strings_stand_for_pairs(self):
        obj = {"id": "x", "dataset": "medqa", "split": "test", "question": "Q?",
               "options": ["Aa", "Bb", "Cc", "Dd"], "gold": "A"}
        assert McqItem.from_json_obj(obj).options == tuple(zip("ABCD", "abcd"))


class TestLabels:
    """`labels` is set once from `options` and is not part of the item's value."""

    def test_replacing_the_options_gives_their_labels(self):
        item = make_item(0)
        assert item.labels == ("A", "B", "C", "D")
        fewer = dataclasses.replace(item, options=(("A", "alpha"), ("B", "beta")))
        assert fewer.labels == ("A", "B")
        assert item.labels == ("A", "B", "C", "D")

    def test_labels_stay_out_of_the_items_value(self):
        item = make_item(0, subject="anatomy", context="ctx")
        twin = make_item(0, subject="anatomy", context="ctx")
        object.__setattr__(twin, "labels", ("Z",))
        assert item == twin and hash(item) == hash(twin)
        assert "labels" not in repr(item)
        assert "labels" not in item.to_json_obj()
        assert McqItem.from_json_obj(json.loads(item.canonical_json())) == item


class TestNormalizedRoundTrip:
    def test_write_read_preserves_items(self, tmp_path):
        items = [
            make_item(0),
            make_item(1, dataset=Dataset.PUBMEDQA,
                      options=(("A", "yes"), ("B", "no"), ("C", "maybe")),
                      gold="C", context="Some context.\nMore context."),
        ]
        path = tmp_path / "norm.jsonl"
        write_normalized(items, path)
        assert read_normalized(path) == items

    def test_duplicate_ids_rejected_on_read(self, tmp_path):
        item = make_item(0)
        path = tmp_path / "norm.jsonl"
        row = json.dumps(item.to_json_obj(), sort_keys=True)
        path.write_text(row + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            read_normalized(path)

    def test_duplicate_id_names_the_file_and_both_lines(self, tmp_path):
        path = tmp_path / "norm.jsonl"
        write_normalized([make_item(i) for i in range(3)], path)
        # A blank line 4, then line 5 repeats line 2's item.
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines, "", lines[1]]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: lines 2 and 5: duplicate item id 'test-00001'")):
            read_normalized(path)


class TestPoolView:
    """Each item comes from its own line, parsed as `read_normalized` parses it."""

    @pytest.mark.parametrize("edit", [
        lambda text: text,
        lambda text: text.replace("\n", "\r\n"),
        lambda text: "\n" + text.replace("\n", "\n\n \r\n"),
    ], ids=["lf", "crlf", "blank-lines"])
    def test_items_equal_read_normalized(self, tmp_path, edit):
        # A raw U+2028 in every question: `str.splitlines` would cut there.
        items = [make_item(i, split=Split.TRAIN, question=f"Stem {i}\u2028continued?")
                 for i in range(4)]
        path = tmp_path / "train.jsonl"
        write_normalized(items, path)
        path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
        assert "\u2028".encode("utf-8") in path.read_bytes()
        assert read_normalized(path) == items
        assert CorpusFile(path).questions() == [(item.id, item.question) for item in items]
        view = PoolView(CorpusFile(path), [item.id for item in items])
        assert [view[item.id] for item in reversed(items)] == list(reversed(items))

    def test_line_with_another_id_is_an_error(self, tmp_path):
        items = [make_item(i, split=Split.TRAIN) for i in range(3)]
        path = tmp_path / "train.jsonl"
        write_normalized(items, path)
        view = PoolView(CorpusFile(path), [items[1].id, items[0].id, items[2].id])
        assert view[items[2].id] == items[2]
        with pytest.raises(DataError, match="line 2 holds 'train-00001'"):
            view[items[0].id]


class TestQuestions:
    """`CorpusFile.questions` reads ids and questions alone, and refuses what
    would make either unusable, naming the file and line."""

    @pytest.mark.parametrize("line, message", [
        ('{"id": "x", ', "Expecting"),
        ('["x", "Q?"]', "expected a JSON object, got list"),
        ('{"id": "", "question": "Q?"}', "id must be a non-empty string"),
        ('{"id": 7, "question": "Q?"}', "id must be a non-empty string, got 7"),
        ('{"id": "x", "question": " \\t"}', "x: question must be non-empty"),
        ('{"id": "x"}', "x: question must be non-empty"),
    ])
    def test_bad_line_is_refused(self, tmp_path, line, message):
        path = tmp_path / "train.jsonl"
        write_normalized([make_item(0, split=Split.TRAIN)], path)
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"train.jsonl: line 2: {re.escape(message)}"):
            CorpusFile(path).questions()

    def test_duplicate_id_is_refused(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_normalized([make_item(0, split=Split.TRAIN), make_item(0, split=Split.TRAIN)], path)
        with pytest.raises(DataError, match="duplicate item id 'train-00000'"):
            CorpusFile(path).questions()

    def test_duplicate_id_names_the_file_and_both_lines(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_normalized([make_item(i, split=Split.TRAIN) for i in range(6)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines, lines[5]]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: lines 6 and 7: duplicate item id 'train-00005'")):
            CorpusFile(path).questions()

    def test_other_fields_are_not_read(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"id": "x", "question": "Q?", "gold": "Z"}\n', encoding="utf-8")
        assert CorpusFile(path).questions() == [("x", "Q?")]


class TestCorpusStore:
    def seed_store(self, root, dataset=Dataset.MEDQA):
        store = CorpusStore(root)
        train = [make_item(i, split=Split.TRAIN, gold="B") for i in range(6)]
        test = [make_item(i, split=Split.TEST) for i in range(3)]
        write_normalized(train, store.corpus_path(dataset, Split.TRAIN))
        write_normalized(test, store.corpus_path(dataset, Split.TEST))
        return store, train, test

    def test_load_and_pool(self, tmp_path):
        store, train, test = self.seed_store(tmp_path)
        assert store.load(Dataset.MEDQA, Split.TEST) == test
        pool = store.pool_file(Dataset.MEDQA)
        assert pool.questions() == [(item.id, item.question) for item in train]
        assert list(PoolView(pool, [item.id for item in train]).values()) == train

    def test_pool_missing_is_an_error(self, tmp_path):
        store = CorpusStore(tmp_path)
        write_normalized([make_item(0)], store.corpus_path(Dataset.MEDQA, Split.TEST))
        with pytest.raises(DataError, match="pool missing"):
            store.pool_file(Dataset.MEDQA)

    def test_pool_overlapping_test_ids_refused(self, tmp_path):
        store = CorpusStore(tmp_path)
        shared = make_item(0, split=Split.TEST)
        leaky_pool_item = McqItem(
            id=shared.id, dataset=Dataset.MEDQA, split=Split.TRAIN,
            question=shared.question, options=shared.options, gold=shared.gold,
        )
        write_normalized([shared], store.corpus_path(Dataset.MEDQA, Split.TEST))
        write_normalized([leaky_pool_item], store.corpus_path(Dataset.MEDQA, Split.TRAIN))
        pool_ids = [record.id for record in store.pool_file(Dataset.MEDQA).questions()]
        with pytest.raises(DataError, match="overlaps"):
            store.check_disjoint(Dataset.MEDQA, pool_ids)

    def test_save_writes_manifest(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        write_medqa_jsonl(src, [medqa_record(0)])
        result = load_dataset(Dataset.MEDQA, Split.TEST, src)
        store = CorpusStore(tmp_path / "corpora")
        store.save(result)
        assert store.corpus_path(Dataset.MEDQA, Split.TEST).exists()
        manifest = json.loads(
            store.manifest_path(Dataset.MEDQA, Split.TEST).read_text(encoding="utf-8")
        )
        assert manifest["item_count"] == 1


class TestHeadedFile:
    def test_header_keys_sorted_row_keys_kept(self, tmp_path):
        path = tmp_path / "deep" / "headed.jsonl"
        rows = [{"item_id": "b", "exemplars": ["x"]}, {"item_id": "a", "exemplars": []}]
        write_headed(path, {"schema": 1, "a": "é"}, iter(rows))
        assert path.read_bytes() == (b'{"a": "\\u00e9", "schema": 1}\n'
                                     b'{"item_id": "b", "exemplars": ["x"]}\n'
                                     b'{"item_id": "a", "exemplars": []}\n')
        assert read_headed(path) == ({"schema": 1, "a": "é"}, rows)
        assert [p.name for p in path.parent.iterdir()] == ["headed.jsonl"]

    @pytest.mark.parametrize("data", [b"", b"[1]\n", b'{"schema": 1}\n{"item_id"\n',
                                      b'{"schema": 1}\n\xff\n'],
                             ids=["empty", "list-header", "torn-row", "not-utf8"])
    def test_unreadable_file_is_value_error(self, tmp_path, data):
        path = tmp_path / "headed.jsonl"
        path.write_bytes(data)
        with pytest.raises(ValueError):
            read_headed(path)
