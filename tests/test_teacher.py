"""Teacher-verified exemplar construction, replacement, and the CoT cache."""

import json
import random
import sys
import threading
import time
from dataclasses import replace

import pytest

from conftest import make_item
from medharness.corpus import Split
from medharness.errors import DataError, EndpointError
from medharness.modelgw import (
    FlakyGoldPolicy,
    GarbagePolicy,
    GoldAnswerPolicy,
    mock_model,
)
from medharness.retrieval import build_index, nearest
from medharness.teacher import (
    CotCache,
    build_exemplars,
    build_random_exemplars,
    generate_cot,
    random_candidate_stream,
    teacher_fingerprint,
)


def gold_teacher(pool):
    return mock_model(GoldAnswerPolicy({it.question: it.gold_text for it in pool}))


def flaky_teacher(pool, fail_questions, n_wrong=3):
    policy = FlakyGoldPolicy(
        {it.question: it.gold_text for it in pool},
        fail_questions=fail_questions,
        n_wrong=n_wrong,
    )
    return mock_model(policy)


@pytest.fixture
def query():
    return make_item(0, question="Toy query about topics?")


@pytest.fixture
def ranked(tiny_pool, query):
    """Neighbor set over the whole pool, plus the full similarity order."""
    index = build_index(tiny_pool)
    neighbors = nearest(query, index, k=5)
    full = [i for i, _ in index.rank_all(neighbors.query_vector, exclude_id=query.id)]
    assert list(neighbors.ids) == full[:5]
    return index, neighbors, full


class TestGenerateCot:
    def test_accepts_gold_with_explanation(self, tiny_pool):
        item = tiny_pool[0]
        outcome = generate_cot(item, gold_teacher(tiny_pool))
        assert outcome.accepted
        assert outcome.attempts == 1
        assert outcome.extracted == item.gold
        assert outcome.explanation.strip()

    def test_wrong_answers_exhaust_attempts(self, tiny_pool):
        item = tiny_pool[0]
        teacher = flaky_teacher(tiny_pool, {item.question}, n_wrong=3)
        outcome = generate_cot(item, teacher)
        assert not outcome.accepted
        assert outcome.attempts == 3
        assert outcome.extracted != item.gold
        assert teacher.call_count == 3

    def test_recovers_within_attempt_budget(self, tiny_pool):
        item = tiny_pool[0]
        teacher = flaky_teacher(tiny_pool, {item.question}, n_wrong=2)
        outcome = generate_cot(item, teacher)
        assert outcome.accepted
        assert outcome.attempts == 3

    def test_garbage_never_verifies(self, tiny_pool):
        outcome = generate_cot(tiny_pool[0], mock_model(GarbagePolicy()))
        assert not outcome.accepted
        assert outcome.attempts == 3

    def test_gold_without_explanation_is_rejected(self, tiny_pool):
        item = tiny_pool[0]
        answer = f"### Answer: ({item.gold}) {item.gold_text}"
        teacher = mock_model(lambda request, occurrence: answer)
        outcome = generate_cot(item, teacher)
        assert not outcome.accepted
        assert outcome.attempts == 3
        assert outcome.extracted == item.gold

    def test_transport_failure_propagates(self, tiny_pool):
        # An empty answer table raises for every prompt, standing in for a
        # dead endpoint.
        teacher = mock_model(GoldAnswerPolicy({}))
        with pytest.raises(EndpointError):
            generate_cot(tiny_pool[0], teacher)
        assert teacher.call_count == 1

    def test_transport_failure_stops_build_exemplars(self, tiny_pool, ranked, tmp_path):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        dead = pool_items[full[1]].question
        answers = {it.question: it.gold_text for it in tiny_pool if it.question != dead}
        with pytest.raises(EndpointError):
            build_exemplars(neighbors, index, pool_items, mock_model(GoldAnswerPolicy(answers)),
                            cache=CotCache(tmp_path, "mock"))
        fp = teacher_fingerprint("mock")
        assert [json.loads(row)["id"] for row in cache_rows(tmp_path, fp)] == full[:1]


def cache_rows(tmp_path, fp):
    """The cache file's lines, split on "\\n" only."""
    data = (tmp_path / "cot" / f"{fp}.jsonl").read_bytes()
    return [line.decode("utf-8") for line in data.split(b"\n")[:-1]]


class TestCotCache:
    def test_round_trip(self, tmp_path, tiny_pool):
        cache = CotCache(tmp_path, "teach-1")
        fp = teacher_fingerprint("teach-1")
        cache.put(tiny_pool[0], "Because the phrenic nerve fires.")
        for reader in (cache, CotCache(tmp_path, "teach-1")):
            hit = reader.get(tiny_pool[0])
            assert hit is not None
            assert hit.verified
            assert hit.explanation == "Because the phrenic nerve fires."
            assert hit.item == tiny_pool[0]

    def test_one_file_per_fingerprint_without_item_text(self, tmp_path, tiny_pool):
        cache = CotCache(tmp_path, "teach-1")
        fp = teacher_fingerprint("teach-1")
        for item in tiny_pool[:3]:
            cache.put(item, f"Explained {item.id}.")
        assert [p.name for p in (tmp_path / "cot").iterdir()] == [f"{fp}.jsonl"]
        rows = [json.loads(line) for line in cache_rows(tmp_path, fp)]
        assert [sorted(row) for row in rows] == [["explanation", "id", "item_sha256"]] * 3
        assert [row["id"] for row in rows] == [item.id for item in tiny_pool[:3]]
        assert tiny_pool[0].question not in "".join(cache_rows(tmp_path, fp))

    def test_absent_entry_misses(self, tmp_path, tiny_pool):
        assert CotCache(tmp_path, "teach-1").get(tiny_pool[0]) is None

    def test_corrupt_entry_misses_with_warning(self, tmp_path, tiny_pool, caplog):
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "Fine.")
        CotCache(tmp_path, "teach-1").put(tiny_pool[1], "Fine too.")
        good = cache_rows(tmp_path, fp)[1]
        blank = json.dumps({"id": tiny_pool[2].id, "item_sha256": "x", "explanation": " "})
        path = tmp_path / "cot" / f"{fp}.jsonl"
        path.write_text("{not json\n" + good + "\n" + blank + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            cache = CotCache(tmp_path, "teach-1")
            assert cache.get(tiny_pool[0]) is None
            assert cache.get(tiny_pool[2]) is None
        assert cache.get(tiny_pool[1]).explanation == "Fine too."
        assert caplog.text.count("corrupt cache row") == 2

    def test_row_that_is_not_utf8_misses_with_warning(self, tmp_path, tiny_pool, caplog):
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "Fièvre — 症状.")
        path = tmp_path / "cot" / f"{teacher_fingerprint('teach-1')}.jsonl"
        path.write_bytes(b'{"id": "\xff"}\n' + path.read_bytes())
        with caplog.at_level("WARNING"):
            cache = CotCache(tmp_path, "teach-1")
            assert cache.get(tiny_pool[0]).explanation == "Fièvre — 症状."
        assert caplog.text.count("corrupt cache row") == 1

    def test_wrong_item_in_entry_misses(self, tmp_path, tiny_pool):
        """An item re-ingested under the same id with other text is a miss."""
        cache = CotCache(tmp_path, "teach-1")
        fp = teacher_fingerprint("teach-1")
        cache.put(tiny_pool[0], "Fine.")
        assert cache.get(tiny_pool[0]).explanation == "Fine."
        edited = replace(tiny_pool[0], question=tiny_pool[0].question + " Edited?")
        assert cache.get(edited) is None
        assert CotCache(tmp_path, "teach-1").get(edited) is None
        assert CotCache(tmp_path, "teach-1").get(tiny_pool[0]).explanation == "Fine."

    def test_canonical_pool_line_hits_without_serializing_the_item(self, tmp_path, tiny_pool,
                                                                    monkeypatch):
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "Fine.")
        line = tiny_pool[0].canonical_json()

        def refuse(item):
            raise AssertionError("serialized the item")

        monkeypatch.setattr(type(tiny_pool[0]), "canonical_json", refuse)
        assert CotCache(tmp_path, "teach-1").get(tiny_pool[0], line=line).explanation == "Fine."

    @pytest.mark.parametrize("rewrite", [
        lambda obj: json.dumps(dict(reversed(obj.items()))),
        lambda obj: json.dumps(obj, indent=2),
        lambda obj: json.dumps(obj, ensure_ascii=True, sort_keys=True),
    ])
    def test_other_lines_of_the_same_item_fall_back_to_its_canonical_json(
            self, tmp_path, tiny_pool, rewrite):
        item = replace(tiny_pool[0], question="Which nerve fires \u2014 phrenic?")
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(item, "Fine.")
        line = rewrite(json.loads(item.canonical_json()))
        assert line != item.canonical_json()
        assert CotCache(tmp_path, "teach-1").get(item, line=line).explanation == "Fine."

    def test_line_of_an_item_reingested_under_the_same_id_misses(self, tmp_path, tiny_pool):
        fp = teacher_fingerprint("teach-1")
        edited = replace(tiny_pool[0], question=tiny_pool[0].question + " Edited?")
        CotCache(tmp_path, "teach-1").put(edited, "About the edited item.")
        cache = CotCache(tmp_path, "teach-1")
        assert cache.get(tiny_pool[0], line=tiny_pool[0].canonical_json()) is None
        assert cache.get(edited, line=edited.canonical_json()) is not None

    def test_torn_last_row_misses_and_is_cut_before_the_next_put(self, tmp_path, tiny_pool):
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "First.")
        CotCache(tmp_path, "teach-1").put(tiny_pool[1], "Second.")
        path = tmp_path / "cot" / f"{fp}.jsonl"
        path.write_bytes(path.read_bytes()[:-9])
        cache = CotCache(tmp_path, "teach-1")
        assert cache.get(tiny_pool[0]).explanation == "First."
        assert cache.get(tiny_pool[1]) is None
        cache.put(tiny_pool[2], "Third.")
        fresh = CotCache(tmp_path, "teach-1")
        assert [fresh.get(it) is not None for it in tiny_pool[:3]] == [True, False, True]
        assert len(cache_rows(tmp_path, fp)) == 2

    def test_last_row_without_newline_gets_it_back(self, tmp_path, tiny_pool):
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "First.")
        path = tmp_path / "cot" / f"{fp}.jsonl"
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        cache = CotCache(tmp_path, "teach-1")
        assert cache.get(tiny_pool[0]).explanation == "First."
        cache.put(tiny_pool[1], "Second.")
        fresh = CotCache(tmp_path, "teach-1")
        assert fresh.get(tiny_pool[0]).explanation == "First."
        assert fresh.get(tiny_pool[1]).explanation == "Second."

    def test_fingerprints_partition_the_cache(self, tmp_path, tiny_pool):
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "From teacher one.")
        assert CotCache(tmp_path, "teach-2").get(tiny_pool[0]) is None
        assert teacher_fingerprint("teach-1") != teacher_fingerprint("teach-2")

    def test_overwrite_leaves_one_valid_entry(self, tmp_path, tiny_pool):
        """Both rows stay in the append-only file; the last one wins."""
        cache = CotCache(tmp_path, "teach-1")
        fp = teacher_fingerprint("teach-1")
        cache.put(tiny_pool[0], "First.")
        cache.put(tiny_pool[0], "Second.")
        rows = [json.loads(line) for line in cache_rows(tmp_path, fp)]
        assert [row["explanation"] for row in rows] == ["First.", "Second."]
        assert cache.get(tiny_pool[0]).explanation == "Second."
        assert CotCache(tmp_path, "teach-1").get(tiny_pool[0]).explanation == "Second."

    def test_entries_read_once_per_instance(self, tmp_path, tiny_pool):
        fp = teacher_fingerprint("teach-1")
        CotCache(tmp_path, "teach-1").put(tiny_pool[0], "First.")
        cache = CotCache(tmp_path, "teach-1")
        assert cache.get(tiny_pool[0]).explanation == "First."
        (tmp_path / "cot" / f"{fp}.jsonl").unlink()
        assert cache.get(tiny_pool[0]).explanation == "First."
        cache.put(tiny_pool[0], "Second.")
        assert cache.get(tiny_pool[0]).explanation == "Second."

    def test_hostile_item_ids_round_trip(self, tmp_path, tiny_pool):
        item = replace(tiny_pool[0], id='a/b c*d\n"\u2028')
        cache = CotCache(tmp_path, "teach-1")
        fp = teacher_fingerprint("teach-1")
        cache.put(item, "Safe.")
        assert len(cache_rows(tmp_path, fp)) == 1
        hit = CotCache(tmp_path, "teach-1").get(item)
        assert hit is not None and hit.explanation == "Safe."


class TestVerifyOnce:
    """A cache verifies each pool item at most once, whatever the threads do."""

    def test_threads_sharing_an_uncached_item_make_one_teacher_call(self, tmp_path, tiny_pool):
        item = tiny_pool[0]
        gold = gold_teacher(tiny_pool)

        class SlowTeacher:
            model_id = gold.model_id

            def complete(self, request):
                time.sleep(0.05)
                return gold.complete(request)

        cache = CotCache(tmp_path, gold.model_id)
        fp = teacher_fingerprint(gold.model_id)
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(cache.verify(item, SlowTeacher()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert gold.call_count == 1
        assert len(results) == 8
        assert len({exemplar for exemplar, _ in results}) == 1
        assert sum(not outcome.from_cache for _, outcome in results) == 1
        assert len(cache_rows(tmp_path, fp)) == 1

    def test_accepted_item_is_answered_from_the_kept_exemplar(self, tmp_path, tiny_pool):
        """The exemplar the teacher verified is the one every later `verify`
        and `get` of that item object returns, with no teacher call."""
        teacher = gold_teacher(tiny_pool)
        cache = CotCache(tmp_path, teacher.model_id)
        fp = teacher_fingerprint(teacher.model_id)
        exemplar, outcome = cache.verify(tiny_pool[0], teacher)
        assert teacher.call_count == 1 and not outcome.from_cache
        again, reused = cache.verify(tiny_pool[0], teacher)
        assert again is exemplar and cache.get(tiny_pool[0]) is exemplar
        assert reused.from_cache and reused.explanation == exemplar.explanation
        assert cache.verify(tiny_pool[0], teacher)[1] is reused
        assert teacher.call_count == 1
        # An equal item that is another object is checked against the cache.
        twin = replace(tiny_pool[0])
        hit, _ = cache.verify(twin, teacher)
        assert hit is not exemplar and hit.item is twin and hit == exemplar
        assert teacher.call_count == 1

    def test_cache_of_another_teacher_is_refused(self, tmp_path, tiny_pool):
        teacher = gold_teacher(tiny_pool)
        with pytest.raises(ValueError, match="'teach-1'"):
            build_random_exemplars(keyed(tiny_pool), seed=3, teacher=teacher,
                                   cache=CotCache(tmp_path, "teach-1"))
        assert teacher.call_count == 0

    def test_rejection_is_reused(self, tiny_pool, ranked, tmp_path):
        """A teacher that would accept on a later try is not asked again."""
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        teacher = flaky_teacher(tiny_pool, {pool_items[full[1]].question}, n_wrong=3)
        cache = CotCache(tmp_path, "mock")
        first, _ = build_exemplars(neighbors, index, pool_items, teacher, cache=cache)
        calls = teacher.call_count
        second, outcomes = build_exemplars(neighbors, index, pool_items, teacher, cache=cache)
        assert teacher.call_count == calls == 5 + 3
        assert second == first
        assert [ex.item.id for ex in first] == [full[0]] + full[2:6]
        assert [o.accepted for o in outcomes] == [True, False, True, True, True, True]


class TestBuildExemplars:
    def test_happy_path_keeps_rank_order(self, tiny_pool, ranked):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        teacher = gold_teacher(tiny_pool)
        exemplars, outcomes = build_exemplars(neighbors, index, pool_items, teacher)
        assert [ex.item.id for ex in exemplars] == full[:5]
        assert all(ex.verified and ex.explanation for ex in exemplars)
        assert [o.accepted for o in outcomes] == [True] * 5
        assert teacher.call_count == 5

    def test_failed_candidate_replaced_by_next_most_similar(self, tiny_pool, ranked):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        bad = pool_items[full[1]]
        teacher = flaky_teacher(tiny_pool, {bad.question}, n_wrong=3)
        exemplars, outcomes = build_exemplars(neighbors, index, pool_items, teacher)
        assert [ex.item.id for ex in exemplars] == [full[0], full[2], full[3], full[4], full[5]]
        assert len(outcomes) == 6
        rejected = [o for o in outcomes if not o.accepted]
        assert [o.item_id for o in rejected] == [bad.id]
        assert rejected[0].attempts == 3

    def test_pool_exhaustion_raises(self, tiny_pool, ranked):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        fail = {pool_items[i].question for i in full[:4]}
        teacher = flaky_teacher(tiny_pool, fail, n_wrong=3)
        with pytest.raises(DataError, match="4 of 5 exemplars verified before the pool ran out"):
            build_exemplars(neighbors, index, pool_items, teacher)

    def test_unloaded_pool_item_raises(self, tiny_pool, ranked):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool if it.id != full[0]}
        with pytest.raises(DataError, match="not loaded"):
            build_exemplars(neighbors, index, pool_items, gold_teacher(tiny_pool))

    def test_cache_prevents_repeat_teacher_calls(self, tiny_pool, ranked, tmp_path):
        index, neighbors, full = ranked
        pool_items = {it.id: it for it in tiny_pool}
        teacher = gold_teacher(tiny_pool)
        cache = CotCache(tmp_path, "mock")
        first, _ = build_exemplars(neighbors, index, pool_items, teacher, cache=cache)
        assert teacher.call_count == 5
        second, outcomes = build_exemplars(neighbors, index, pool_items, teacher, cache=cache)
        assert teacher.call_count == 5
        assert second == first
        assert all(o.from_cache and o.attempts == 0 for o in outcomes)


class TestRandomStream:
    def test_matches_documented_recipe(self):
        ids = [f"train-{i:05d}" for i in range(30)]
        shuffled_input = list(reversed(ids))
        stream = random_candidate_stream(shuffled_input, seed=11)
        assert stream == random.Random(11).sample(sorted(ids), len(ids))

    def test_is_a_permutation_and_seed_sensitive(self):
        ids = [f"train-{i:05d}" for i in range(30)]
        a = random_candidate_stream(ids, seed=1)
        b = random_candidate_stream(ids, seed=2)
        assert sorted(a) == ids and sorted(b) == ids
        assert a != b
        assert a == random_candidate_stream(ids, seed=1)


def keyed(pool):
    """The pool as `build_random_exemplars` takes it: items by id."""
    return {item.id: item for item in pool}


class TestBuildRandomExemplars:
    def test_plain_fewshot_takes_stream_head_unverified(self, tiny_pool):
        exemplars, outcomes = build_random_exemplars(keyed(tiny_pool), seed=3)
        stream = random_candidate_stream([it.id for it in tiny_pool], seed=3)
        assert [ex.item.id for ex in exemplars] == stream[:5]
        assert all(not ex.verified and ex.explanation == "" for ex in exemplars)
        assert outcomes == []

    def test_plain_fewshot_needs_enough_pool(self):
        pool = [make_item(i, split=Split.TRAIN) for i in range(3)]
        with pytest.raises(DataError, match="need 5 exemplars"):
            build_random_exemplars(keyed(pool), seed=3)

    def test_cot_verifies_in_stream_order(self, tiny_pool):
        teacher = gold_teacher(tiny_pool)
        exemplars, outcomes = build_random_exemplars(keyed(tiny_pool), seed=3, teacher=teacher)
        stream = random_candidate_stream([it.id for it in tiny_pool], seed=3)
        assert [ex.item.id for ex in exemplars] == stream[:5]
        assert all(ex.verified for ex in exemplars)
        assert len(outcomes) == 5

    def test_cot_failure_replaced_by_next_stream_item(self, tiny_pool):
        stream = random_candidate_stream([it.id for it in tiny_pool], seed=3)
        by_id = {it.id: it for it in tiny_pool}
        teacher = flaky_teacher(tiny_pool, {by_id[stream[2]].question}, n_wrong=3)
        exemplars, _ = build_random_exemplars(keyed(tiny_pool), seed=3, teacher=teacher)
        expected = [stream[0], stream[1], stream[3], stream[4], stream[5]]
        assert [ex.item.id for ex in exemplars] == expected

    def test_cot_pool_exhaustion_raises(self):
        pool = [make_item(i, split=Split.TRAIN, gold="B") for i in range(6)]
        fail = {it.question for it in pool[:2]}
        teacher = flaky_teacher(pool, fail, n_wrong=3)
        with pytest.raises(DataError, match="4 of 5 random exemplars"):
            build_random_exemplars(keyed(pool), seed=3, teacher=teacher)

    def test_cot_cache_warm_start(self, tiny_pool, tmp_path):
        teacher = gold_teacher(tiny_pool)
        cache = CotCache(tmp_path, "mock")
        first, _ = build_random_exemplars(keyed(tiny_pool), seed=3, teacher=teacher,
                                          cache=cache)
        calls = teacher.call_count
        second, outcomes = build_random_exemplars(keyed(tiny_pool), seed=3, teacher=teacher,
                                                  cache=cache)
        assert teacher.call_count == calls
        assert second == first
        assert all(o.from_cache for o in outcomes)
