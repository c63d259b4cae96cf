"""Embedding provider, exact nearest-neighbor search, index persistence."""

import json
import math
import random

import numpy as np
import pytest

from conftest import make_item
from medharness.corpus import Split
from medharness.errors import DataError
from medharness.retrieval import (
    QUERY_BLOCK,
    SCORE_TIE_BAND,
    BuiltinProvider,
    NeighborSet,
    RemoteProvider,
    VectorIndex,
    build_index,
    nearest,
    next_most_similar,
    token_bucket,
    tokenize,
)


def word_soup_items(n, vocab_size=60, words_per_item=12, seed=123, split=Split.TRAIN):
    rng = random.Random(seed)
    vocab = [f"term{v}" for v in range(vocab_size)]
    items = []
    for i in range(n):
        words = rng.choices(vocab, k=words_per_item)
        items.append(make_item(i, split=split, question=" ".join(words) + "?"))
    return items


def reference_embed(provider, text):
    """The builtin embedding as a plain loop: one hash and one add per token."""
    vec = np.zeros(provider.dim, dtype=np.float64)
    for tok in tokenize(text):
        b = token_bucket(tok, provider.dim)
        vec[b] += provider._bucket_weight(b)
    return vec / float(np.linalg.norm(vec))


def reference_fit(texts, dim=512):
    df = {}
    for text in texts:
        for b in {token_bucket(tok, dim) for tok in tokenize(text)}:
            df[b] = df.get(b, 0) + 1
    return {b: math.log((1 + len(texts)) / (1 + count)) + 1.0 for b, count in df.items()}


class TestBuiltinProvider:
    def test_tokenize_lowercases_alnum_runs(self):
        assert tokenize("Alpha-Beta 12, gamma!") == ["alpha", "beta", "12", "gamma"]

    def test_idf_formula(self):
        # Two documents; hand-computed idf: ln((1+N)/(1+df)) + 1.
        provider = BuiltinProvider.fit(["alpha beta", "alpha gamma"])
        b_alpha = token_bucket("alpha", provider.dim)
        b_beta = token_bucket("beta", provider.dim)
        assert provider.idf[b_alpha] == pytest.approx(math.log(3 / 3) + 1)
        assert provider.idf[b_beta] == pytest.approx(math.log(3 / 2) + 1)

    def test_unseen_token_gets_df_zero_weight(self):
        provider = BuiltinProvider.fit(["alpha beta", "alpha gamma"])
        b_delta = token_bucket("delta", provider.dim)
        assert provider._bucket_weight(b_delta) == pytest.approx(math.log(3 / 1) + 1)

    def test_term_frequency_counts(self):
        provider = BuiltinProvider.fit(["alpha beta", "alpha gamma"])
        single = provider.embed("alpha beta")
        double = provider.embed("alpha alpha beta")
        b_alpha = token_bucket("alpha", provider.dim)
        b_beta = token_bucket("beta", provider.dim)
        ratio_single = single[b_alpha] / single[b_beta]
        ratio_double = double[b_alpha] / double[b_beta]
        assert ratio_double == pytest.approx(2 * ratio_single)

    def test_vectors_unit_norm_and_deterministic(self):
        provider = BuiltinProvider.fit(["alpha beta gamma"])
        a = provider.embed("alpha gamma gamma")
        b = provider.embed("alpha gamma gamma")
        assert np.array_equal(a, b)
        assert float(np.linalg.norm(a)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_is_an_error(self):
        provider = BuiltinProvider.fit(["alpha"])
        with pytest.raises(DataError, match="empty"):
            provider.embed("  !?  ")

    def test_provider_id_names_dim(self):
        assert BuiltinProvider(dim=512).provider_id == "builtin-tfidf-v1:dim=512"

    def test_memoised_buckets_equal_the_reference_loop(self):
        # Repeated tokens, and texts sharing tokens, hit the token memo.
        texts = [item.question for item in word_soup_items(200, vocab_size=40)]
        texts += ["Alpha alpha ALPHA beta 12 12?", "beta beta gamma alpha"]
        provider = BuiltinProvider.fit(texts)
        assert provider.idf == reference_fit(texts)
        assert provider.n_docs == len(texts)
        for text in texts + ["term1 delta unseen words"]:
            assert provider.embed(text).tobytes() == reference_embed(provider, text).tobytes()


class TestNearest:
    def test_matches_brute_force(self):
        pool = word_soup_items(60)
        queries = word_soup_items(10, seed=77, split=Split.TEST)
        index = build_index(pool)
        provider = index.provider
        vectors = {item.id: provider.embed(item.question) for item in pool}
        for query in queries:
            qvec = provider.embed(query.question)
            oracle = sorted(
                ((item.id, float(np.dot(vectors[item.id], qvec))) for item in pool),
                key=lambda pair: (-pair[1], pair[0]),
            )[:5]
            got = index.nearest(query, 5)
            assert list(got.neighbors) == oracle

    def test_identical_texts_tie_broken_by_id(self):
        pool = [
            make_item(2, split=Split.TRAIN, question="same words here?"),
            make_item(1, split=Split.TRAIN, question="same words here?"),
            make_item(0, split=Split.TRAIN, question="other thing entirely?"),
        ]
        index = build_index(pool)
        query = make_item(9, question="same words here?")
        got = index.nearest(query, 2)
        assert got.ids == ("train-00001", "train-00002")

    def test_query_id_excluded_from_results(self):
        pool = word_soup_items(6)
        index = build_index(pool)
        got = index.nearest(pool[0], 5)
        assert pool[0].id not in got.ids

    def test_k_bounds(self):
        pool = word_soup_items(4)
        index = build_index(pool)
        query = make_item(0, question="term1 term2?")
        with pytest.raises(DataError, match="exceeds pool"):
            index.nearest(query, 5)
        with pytest.raises(DataError, match=">= 1"):
            index.nearest(query, 0)
        with pytest.raises(DataError, match="excluding"):
            index.nearest(pool[0], 4)

    def test_fewer_positive_scores_than_k(self):
        # One pool question shares a word with the query; the rest score 0
        # and fill the top k in id order.
        words = ["beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"]
        pool = [make_item(i, split=Split.TRAIN, question=f"{word}?") for i, word in enumerate(words)]
        index = build_index(pool)
        query = make_item(0, question="beta beta?")
        qvec = index.provider.embed(query.question)
        scores = [float(np.dot(index.provider.embed(item.question), qvec)) for item in pool]
        assert sum(score > 0 for score in scores) == 1
        oracle = sorted(((item.id, score) for item, score in zip(pool, scores)),
                        key=lambda pair: (-pair[1], pair[0]))
        assert list(index.nearest(query, 3).neighbors) == oracle[:3]

    def test_neighbor_subsets_nest(self):
        pool = word_soup_items(30)
        index = build_index(pool)
        query = make_item(0, question="term3 term7 term9?")
        small = index.nearest(query, 3)
        large = index.nearest(query, 10)
        assert large.ids[:3] == small.ids

    def test_duplicate_pool_ids_refused(self):
        item = make_item(0, split=Split.TRAIN)
        provider = BuiltinProvider.fit([item.question])
        vec = provider.embed(item.question)
        with pytest.raises(DataError, match="duplicate"):
            VectorIndex(provider, [item.id, item.id], [vec, vec])

    def test_neighbor_set_equality_ignores_query_vector(self):
        a = NeighborSet("q", (("x", 0.5),), query_vector=np.ones(3))
        b = NeighborSet("q", (("x", 0.5),), query_vector=np.zeros(3))
        assert a == b


class TestNextMostSimilar:
    def test_walks_past_consumed(self):
        pool = word_soup_items(20)
        index = build_index(pool)
        query = make_item(0, question="term5 term6 term8?")
        ns = index.nearest(query, 5)
        full = [item_id for item_id, _ in index.rank_all(ns.query_vector, exclude_id=query.id)]
        consumed = set(full[:7])
        assert next_most_similar(ns, consumed, index) == full[7]

    def test_pool_exhaustion_is_an_error(self):
        pool = word_soup_items(5)
        index = build_index(pool)
        query = make_item(0, question="term5 term6?")
        ns = nearest(query, index, 5)
        with pytest.raises(DataError, match="exhausted"):
            next_most_similar(ns, set(ns.ids), index)

    def test_requires_query_vector(self):
        pool = word_soup_items(5)
        index = build_index(pool)
        ns = NeighborSet("q", (("train-00000", 1.0),))
        with pytest.raises(DataError, match="query vector"):
            next_most_similar(ns, set(), index)


class TestExactness:
    """The block score plus band re-score equals a per-pair np.dot scan.

    `build_index` gives the builtin provider's index, which scores blocks
    through its postings.
    """

    @pytest.fixture(scope="class")
    def tied_pool(self):
        # Word soup plus groups of identical questions (sizes 2..24), so
        # exact ties straddle every k tested below.
        pool = word_soup_items(2000, seed=5)
        rng = random.Random(6)
        groups = [pool[rng.randrange(len(pool))].question for _ in range(12)]
        next_id = len(pool)
        for size, question in zip(range(2, 26, 2), groups):
            for _ in range(size):
                pool.append(make_item(next_id, split=Split.TRAIN, question=question))
                next_id += 1
        queries = [make_item(i, question=q) for i, q in enumerate(groups)]
        queries += word_soup_items(8, seed=77, split=Split.TEST)
        queries.append(pool[0])  # a pool member: its own row is excluded
        index = build_index(pool)
        vectors = {item.id: index.provider.embed(item.question) for item in pool}
        return queries, index, vectors

    @staticmethod
    def oracle(index, vectors, query):
        qvec = index.provider.embed(query.question)
        return sorted(
            ((item_id, float(np.dot(vec, qvec))) for item_id, vec in vectors.items()
             if item_id != query.id),
            key=lambda pair: (-pair[1], pair[0]),
        )

    def test_matrix_product_rounds_differently(self, tied_pool):
        # Both block scores, the builtin index's postings and a dense `M @ q`
        # over the same rows, differ from the per-pair dot in the last bits;
        # the band re-score is what makes the results exact.
        queries, index, vectors = tied_pool
        qvec = index.provider.embed(queries[-2].question)
        per_pair = np.array([np.dot(vectors[item_id], qvec) for item_id in index.ids])
        postings = index._vectors.scores(qvec[None])[0]
        dense = np.vstack([vectors[item_id] for item_id in index.ids]) @ qvec
        for block_scores in (postings, dense):
            assert np.any(block_scores != per_pair)
            assert np.max(np.abs(block_scores - per_pair)) < SCORE_TIE_BAND / 1000

    def test_builtin_rows_are_the_embeddings(self, tied_pool, tmp_path):
        # Every stored row, densified, is byte-equal to embedding its question,
        # before and after a save and load.
        _, index, vectors = tied_pool
        index.save(tmp_path / "pool.jsonl")
        reloaded = VectorIndex.load(tmp_path / "pool.jsonl")
        for candidate in (index, reloaded):
            assert candidate._vectors.weights.size < 0.05 * len(vectors) * index.provider.dim
            for row, item_id in enumerate(candidate.ids):
                assert candidate._vectors.row(row).tobytes() == vectors[item_id].tobytes()

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_nearest_equals_per_pair_oracle(self, tied_pool, k):
        queries, index, vectors = tied_pool
        straddled = 0
        for query in queries:
            full = self.oracle(index, vectors, query)
            got = index.nearest(query, k).neighbors
            assert list(got) == full[:k]
            straddled += full[k - 1][1] == full[k][1]
        assert straddled > 0

    def test_near_ties_reordered_by_matrix_rounding(self):
        # Rows a few ulps apart: `M @ q` puts some of them in a different
        # order than the per-pair dot, and the result must follow the latter.
        rng = np.random.default_rng(0)
        reordered = 0
        for _ in range(50):
            query = rng.standard_normal(64)
            rows = np.tile(rng.standard_normal(64), (16, 1))
            for row in rows:
                nudged = rng.integers(0, 64, 4)
                row[nudged] *= 1 + rng.integers(-50, 50, 4) * 2.2e-16
            ids = [f"p{j:02d}" for j in range(16)]
            oracle = sorted(((ids[j], float(np.dot(rows[j], query))) for j in range(16)),
                            key=lambda pair: (-pair[1], pair[0]))
            # A builtin provider keeps the rows as postings, any other as a matrix.
            for provider in (BuiltinProvider(dim=64), RemoteProvider(None, "m")):
                index = VectorIndex(provider, ids, rows)
                for k in (1, 3):
                    assert index.rank_all(query, limit=k) == oracle[:k]
            gemv_order = sorted(range(16), key=lambda j: (-(rows @ query)[j], ids[j]))
            reordered += [ids[j] for j in gemv_order[:3]] != [i for i, _ in oracle[:3]]
        assert reordered > 0

    def test_next_most_similar_equals_per_pair_oracle(self, tied_pool):
        queries, index, vectors = tied_pool
        rng = random.Random(8)
        for query in queries:
            full = [item_id for item_id, _ in self.oracle(index, vectors, query)]
            consumed = set(rng.sample(full[:60], 50))
            expected = next(item_id for item_id in full if item_id not in consumed)
            ns = index.nearest(query, 5)
            assert next_most_similar(ns, consumed, index) == expected

    # -- queries ranked QUERY_BLOCK per matrix product ---------------------

    @pytest.fixture(scope="class")
    def block_queries(self, tied_pool):
        # 37 queries, three blocks. Four copies of a duplicated pool question
        # sit at 14, 15, 17 and 18, across the first block boundary; pool
        # members, whose own rows are excluded, sit at 16 and 36.
        queries, _, _ = tied_pool
        soup = word_soup_items(20, seed=91, split=Split.TEST)
        copies = [make_item(100 + j, question=queries[3].question) for j in range(4)]
        groups = [make_item(200 + j, question=q.question) for j, q in enumerate(queries[:11])]
        twin = make_item(2000, split=Split.TRAIN, question=queries[0].question)
        block = soup[:14] + copies[:2] + [queries[-1]] + copies[2:] + soup[14:] + groups + [twin]
        assert len(block) == 37 and QUERY_BLOCK == 16
        return block

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 37])
    @pytest.mark.parametrize("k", [5, 20])
    def test_blocks_equal_per_pair_oracle(self, tied_pool, block_queries, n, k):
        _, index, vectors = tied_pool
        queries = block_queries[:n]
        got = list(index.nearest_many(queries, k))
        assert [ns.query_id for ns in got] == [query.id for query in queries]
        straddled = 0
        for ns, query in zip(got, queries):
            full = self.oracle(index, vectors, query)
            assert list(ns.neighbors) == full[:k]
            straddled += full[k - 1][1] == full[k][1]
        assert straddled > 0 or n < 17

    def test_copies_across_a_block_boundary_agree(self, tied_pool, block_queries):
        _, index, _ = tied_pool
        got = list(index.nearest_many(block_queries[:19], 5))
        assert len({got[i].neighbors for i in (14, 15, 17, 18)}) == 1

    def test_pool_member_query_excludes_its_own_row(self, tied_pool, block_queries):
        _, index, vectors = tied_pool
        got = list(index.nearest_many(block_queries, 5))
        for position in (16, 36):
            query = block_queries[position]
            assert query.id in index.ids and query.id not in got[position].ids
        # The pool items sharing train-02000's question come first, it does not.
        same = sorted(item_id for item_id, vec in vectors.items()
                      if item_id != "train-02000" and np.array_equal(vec, vectors["train-02000"]))
        assert "train-02001" in same and list(got[36].ids[:len(same)]) == same

    def test_one_product_per_block(self, tied_pool, block_queries, monkeypatch):
        _, index, _ = tied_pool
        sizes = []
        rank_block = VectorIndex._rank_block

        def spy(self, query_vectors, exclude_ids, limit):
            sizes.append(len(query_vectors))
            return rank_block(self, query_vectors, exclude_ids, limit)

        monkeypatch.setattr(VectorIndex, "_rank_block", spy)
        assert len(list(index.nearest_many(block_queries, 5))) == 37
        assert sizes == [16, 16, 5]

    def test_next_most_similar_with_reembedded_query(self, tied_pool):
        # A neighbor set kept without its vector needs the query embedded
        # again; embedding is deterministic, so replacements do not change.
        queries, index, vectors = tied_pool
        rng = random.Random(9)
        for query, ns in zip(queries, index.nearest_many(queries, 5)):
            full = [item_id for item_id, _ in self.oracle(index, vectors, query)]
            consumed = set(rng.sample(full[:40], 30))
            expected = next(item_id for item_id in full if item_id not in consumed)
            dropped = NeighborSet(ns.query_id, ns.neighbors)
            with pytest.raises(DataError, match="query vector"):
                next_most_similar(dropped, consumed, index)
            again = NeighborSet(ns.query_id, ns.neighbors, query_vector=index.embed_query(query))
            assert next_most_similar(again, consumed, index) == expected


class TestPersistence:
    def test_round_trip_preserves_results_bit_exactly(self, tmp_path):
        pool = word_soup_items(40)
        queries = word_soup_items(5, seed=9, split=Split.TEST)
        index = build_index(pool)
        path = tmp_path / "pool.jsonl"
        index.save(path)
        reloaded = VectorIndex.load(path)
        for query in queries:
            assert reloaded.nearest(query, 7) == index.nearest(query, 7)

    def test_load_rejects_other_provider(self, tmp_path):
        pool = word_soup_items(5)
        index = build_index(pool)
        path = tmp_path / "pool.jsonl"
        index.save(path)

        class OtherProvider:
            provider_id = "remote:some-model"

        with pytest.raises(DataError, match="does not match"):
            VectorIndex.load(path, provider=OtherProvider())

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            VectorIndex.load(tmp_path / "nope.jsonl")

    def test_row_count_validated(self, tmp_path):
        pool = word_soup_items(5)
        index = build_index(pool)
        path = tmp_path / "pool.jsonl"
        index.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="count"):
            VectorIndex.load(path)

    def test_vectors_stored_beside_header(self, tmp_path):
        index = build_index(word_soup_items(5))
        index.save(tmp_path / "pool.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pool.jsonl", "pool.npz"]
        header, *rows = (json.loads(line) for line in
                         (tmp_path / "pool.jsonl").read_text(encoding="utf-8").splitlines())
        assert (header["schema"], header["count"]) == (3, 5)
        assert rows == [{"item_id": item_id} for item_id in index.ids]
        with np.load(tmp_path / "pool.npz") as arrays:
            assert sorted(arrays.files) == ["buckets", "indptr", "weights"]
            indptr, buckets, weights = arrays["indptr"], arrays["buckets"], arrays["weights"]
        assert indptr.shape == (6,) and indptr[0] == 0
        assert buckets.shape == weights.shape == (indptr[-1],)
        assert 0 <= buckets.min() and buckets.max() < header["dim"]
        for row, item in enumerate(word_soup_items(5)):
            dense = np.zeros(header["dim"])
            dense[buckets[indptr[row]:indptr[row + 1]]] = weights[indptr[row]:indptr[row + 1]]
            assert dense.tobytes() == index.provider.embed(item.question).tobytes()

    def test_missing_vectors_refused(self, tmp_path):
        build_index(word_soup_items(5)).save(tmp_path / "pool.jsonl")
        (tmp_path / "pool.npz").unlink()
        with pytest.raises(DataError, match="vectors missing.*medharness index"):
            VectorIndex.load(tmp_path / "pool.jsonl")

    def test_vector_shape_mismatch_refused(self, tmp_path):
        build_index(word_soup_items(5)).save(tmp_path / "pool.jsonl")
        with np.load(tmp_path / "pool.npz") as arrays:
            saved = {name: arrays[name] for name in arrays.files}
        edits = [
            {"indptr": saved["indptr"][:-1]},
            {"weights": saved["weights"][:-1]},
            {"buckets": saved["buckets"] + 512},
            {"indptr": saved["indptr"][::-1].copy()},
            {"weights": saved["weights"].astype(np.float32)},
            {"weights": None},
        ]
        for edit in edits:
            arrays = {name: value for name, value in {**saved, **edit}.items() if value is not None}
            np.savez(tmp_path / "pool.npz", **arrays)
            with pytest.raises(DataError, match="medharness index"):
                VectorIndex.load(tmp_path / "pool.jsonl")
        (tmp_path / "pool.npz").write_bytes(b"PK\x03\x04 cut short")
        with pytest.raises(DataError, match="unreadable.*medharness index"):
            VectorIndex.load(tmp_path / "pool.jsonl")

    def test_schema_2_index_refused(self, tmp_path):
        # The former layout: the dense builtin matrix in `.npy`.
        index = build_index(word_soup_items(5))
        index.save(tmp_path / "pool.jsonl")
        header, *rows = (tmp_path / "pool.jsonl").read_text(encoding="utf-8").splitlines()
        header = {**json.loads(header), "schema": 2}
        (tmp_path / "pool.jsonl").write_text("\n".join([json.dumps(header), *rows]) + "\n",
                                             encoding="utf-8")
        np.save(tmp_path / "pool.npy", np.vstack([index._vectors.row(r) for r in range(5)]))
        with pytest.raises(DataError, match="schema 2 is not 3.*medharness index"):
            VectorIndex.load(tmp_path / "pool.jsonl")

    def test_json_vector_index_refused(self, tmp_path):
        # The former layout: schema 1, vectors as JSON float lists.
        path = tmp_path / "pool.jsonl"
        header = {"schema": 1, "provider_id": "builtin-tfidf-v1:dim=2", "dim": 2, "count": 1}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps({"item_id": "train-00000", "values": [1.0, 0.0]}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="schema 1.*medharness index"):
            VectorIndex.load(path)


class FakeEmbeddingEndpoint:
    def __init__(self, table):
        self.table = table

    def embed_batch(self, texts, model):
        return [self.table[t] for t in texts]


class TestRemoteIndex:
    """A remote provider's index keeps its dense matrix in `.npy`."""

    @staticmethod
    def endpoint_for(items, dim=8, seed=3):
        # Few distinct directions, so exact ties straddle k.
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((6, dim))
        return FakeEmbeddingEndpoint({item.question: list(directions[i % 6] + (i % 5) * 0.01)
                                      for i, item in enumerate(items)})

    def test_save_load_nearest_many_equals_oracle(self, tmp_path):
        pool = word_soup_items(90, seed=4)
        queries = word_soup_items(20, seed=44, split=Split.TEST) + pool[:3]
        endpoint = self.endpoint_for(pool + queries)
        index = build_index(pool, provider=RemoteProvider(endpoint, "m"))
        index.save(tmp_path / "pool.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pool.jsonl", "pool.npy"]
        assert np.load(tmp_path / "pool.npy").shape == (90, 8)
        provider = RemoteProvider(endpoint, "m")
        reloaded = VectorIndex.load(tmp_path / "pool.jsonl", provider=provider)
        assert provider.dim == 8
        vectors = {item.id: provider.embed(item.question) for item in pool}
        straddled = 0
        for query, ns in zip(queries, reloaded.nearest_many(queries, 5)):
            qvec = provider.embed(query.question)
            oracle = sorted(((item_id, float(np.dot(vec, qvec))) for item_id, vec in vectors.items()
                             if item_id != query.id), key=lambda pair: (-pair[1], pair[0]))
            assert list(ns.neighbors) == oracle[:5]
            straddled += oracle[4][1] == oracle[5][1]
        assert straddled > 0

    def test_query_of_another_dimension_refused(self, tmp_path):
        pool = word_soup_items(10)
        build_index(pool, provider=RemoteProvider(self.endpoint_for(pool, dim=4), "m")).save(
            tmp_path / "pool.jsonl")
        query = make_item(0, question="a new question?")
        provider = RemoteProvider(FakeEmbeddingEndpoint({query.question: [1.0, 2.0, 3.0]}), "m")
        index = VectorIndex.load(tmp_path / "pool.jsonl", provider=provider)
        with pytest.raises(DataError, match="dimension changed: 3 != 4"):
            index.nearest(query, 5)

    def test_provider_of_another_dimension_refused(self, tmp_path):
        pool = word_soup_items(10)
        build_index(pool, provider=RemoteProvider(self.endpoint_for(pool, dim=4), "m")).save(
            tmp_path / "pool.jsonl")
        provider = RemoteProvider(FakeEmbeddingEndpoint({"x": [1.0, 0.0, 0.0]}), "m")
        provider.embed("x")
        with pytest.raises(DataError, match="dim 4 != provider dim 3"):
            VectorIndex.load(tmp_path / "pool.jsonl", provider=provider)


class TestRemoteProvider:
    def test_normalizes_and_fixes_dim(self):
        endpoint = FakeEmbeddingEndpoint({"a": [3.0, 4.0], "b": [1.0, 0.0]})
        provider = RemoteProvider(endpoint, "embed-model")
        vec = provider.embed("a")
        assert vec == pytest.approx([0.6, 0.8])
        assert provider.provider_id == "remote:embed-model"
        provider.embed("b")

    def test_dimension_change_is_an_error(self):
        endpoint = FakeEmbeddingEndpoint({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]})
        provider = RemoteProvider(endpoint, "m")
        provider.embed("a")
        with pytest.raises(DataError, match="dimension"):
            provider.embed("b")

    def test_zero_vector_is_an_error(self):
        endpoint = FakeEmbeddingEndpoint({"a": [0.0, 0.0]})
        provider = RemoteProvider(endpoint, "m")
        with pytest.raises(DataError, match="zero"):
            provider.embed("a")
