"""Embedding index and exact cosine nearest-neighbor search over the pool.

Similarity is the cosine of question-text embeddings (contexts excluded) in
float64. Ordering is (similarity descending, item id ascending); search is
exhaustive, never approximate, and its scores equal a brute-force scan of one
`np.dot` per pair bit for bit. Queries are scored QUERY_BLOCK at a time, so
the pool streams through memory once per block rather than once per query.
How a block is scored follows the provider. Remote (dense) vectors are the
rows of one C-contiguous matrix `M`, scored with one `Q @ M.T`. Builtin
vectors are sparse (a question fills a few of the 512 buckets); they are
kept as CSR rows and scored through per-bucket postings, one `np.bincount`
over the rows of a query's buckets. Either score's rounding differs from
the per-pair dot by about dim * eps; every row within SCORE_TIE_BAND (far
wider) of a query's k-th best is then re-scored with its own `np.dot` on the
dense row and sorted. No row of the true top k can fall outside that band,
so the result is the brute-force one, ties included.

Two embedding providers exist: a remote one backed by an embeddings endpoint,
and a builtin deterministic lexical one (hashed term frequency weighted by
inverse document frequency, L2-normalized) that needs no network and anchors
the offline test suite. An index persists as two files: `<name>.jsonl` holds
a header with the provider metadata and the SHA-256 of the pool file it was
built from, then one `{"item_id": ...}` row per pool item in row order. The
rows sit beside it: a builtin index writes `<name>.npz` with the CSR arrays
`indptr`, `buckets` and `weights`; a remote index writes `<name>.npy` with
the (count, dim) float64 matrix.
"""

from __future__ import annotations

import json
import math
import re
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import McqItem, replace_atomically
from .errors import DataError

__all__ = [
    "NeighborSet",
    "BuiltinProvider",
    "RemoteProvider",
    "VectorIndex",
    "QUERY_BLOCK",
    "build_index",
    "nearest",
    "next_most_similar",
    "token_bucket",
    "tokenize",
]

DEFAULT_DIM = 512
INDEX_SCHEMA = 3
# Queries scored per block. Larger blocks stream the pool less often but grow
# the block's score buffer; at 16 it is 1.3 MB for a 10k pool.
QUERY_BLOCK = 16
# Pool questions embedded per dense block while building a builtin index
# (4 MB at dim 512); the index keeps only each block's non-zero entries.
EMBED_BLOCK = 1024
# Rows whose block score is within this of the k-th best are re-scored per
# pair. It is far above the ~dim * eps (~6e-14 at dim 512) by which a block
# score and a per-pair `np.dot` can differ.
SCORE_TIE_BAND = 1e-9
_REBUILD = "rebuild with `medharness index`"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def token_bucket(token: str, dim: int) -> int:
    """Stable hash bucket for a token; independent of process and platform."""
    digest = blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


@dataclass(frozen=True)
class NeighborSet:
    query_id: str
    neighbors: tuple[tuple[str, float], ...]
    # Retained so replacements beyond the initial k can be ranked without
    # re-embedding; not part of the value.
    query_vector: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item_id for item_id, _ in self.neighbors)


class BuiltinProvider:
    """Deterministic lexical embeddings: hashed tf-idf, L2-normalized.

    idf is fit on the pool at index build time: ln((1+N)/(1+df)) + 1 per hash
    bucket, where df counts pool documents containing the bucket. Buckets
    unseen at fit time get the df=0 weight. Each distinct token is hashed
    once per provider.
    """

    def __init__(self, dim: int = DEFAULT_DIM, idf: dict[int, float] | None = None, n_docs: int = 0):
        self.dim = dim
        self.idf = dict(idf or {})
        self.n_docs = n_docs
        self._token_buckets: dict[str, int] = {}

    @property
    def provider_id(self) -> str:
        return f"builtin-tfidf-v1:dim={self.dim}"

    @classmethod
    def fit(cls, texts: list[str], dim: int = DEFAULT_DIM) -> "BuiltinProvider":
        provider = cls(dim=dim)
        provider._fit([provider.buckets(text) for text in texts])
        return provider

    def _fit(self, bucket_lists: list[list[int]]) -> None:
        df = Counter(b for buckets in bucket_lists for b in set(buckets))
        n = len(bucket_lists)
        self.idf = {b: math.log((1 + n) / (1 + count)) + 1.0 for b, count in df.items()}
        self.n_docs = n

    def buckets(self, text: str) -> list[int]:
        """The hash bucket of each of the text's tokens, in token order."""
        memo = self._token_buckets
        buckets = []
        for tok in tokenize(text):
            b = memo.get(tok)
            if b is None:
                b = memo[tok] = token_bucket(tok, self.dim)
            buckets.append(b)
        return buckets

    def _bucket_weight(self, bucket: int) -> float:
        try:
            return self.idf[bucket]
        except KeyError:
            return math.log((1 + self.n_docs) / 1) + 1.0

    def embed(self, text: str) -> np.ndarray:
        [vec] = self._embed_rows([self.buckets(text)])
        return vec

    def _embed_rows(self, bucket_lists: list[list[int]]) -> np.ndarray:
        """One unit row per text's buckets: each token adds its bucket's
        weight, in token order (`np.add.at` adds in index order), then the
        row is divided by its own `np.linalg.norm`."""
        if not all(bucket_lists):
            raise DataError("cannot embed empty text")
        flat = [b for buckets in bucket_lists for b in buckets]
        row_starts = np.repeat(np.arange(len(bucket_lists)) * self.dim, list(map(len, bucket_lists)))
        rows = np.zeros((len(bucket_lists), self.dim), dtype=np.float64)
        np.add.at(rows.ravel(), row_starts + flat, [self._bucket_weight(b) for b in flat])
        rows /= np.array([np.linalg.norm(row) for row in rows])[:, None]
        return rows


class RemoteProvider:
    """Embeddings from an endpoint; dimension fixed by the first response or
    by the index it is loaded with."""

    def __init__(self, endpoint, model: str):
        self.endpoint = endpoint
        self.model = model
        self.dim: int | None = None

    @property
    def provider_id(self) -> str:
        return f"remote:{self.model}"

    def close(self) -> None:
        self.endpoint.close()

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise DataError("cannot embed empty text")
        [values] = self.endpoint.embed_batch([text], self.model)
        vec = np.asarray(values, dtype=np.float64)
        if self.dim is None:
            self.dim = vec.shape[0]
        elif vec.shape[0] != self.dim:
            raise DataError(f"embedding dimension changed: {vec.shape[0]} != {self.dim}")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise DataError("endpoint returned a zero embedding")
        return vec / norm


def _offsets(counts: np.ndarray) -> np.ndarray:
    """[0, c0, c0 + c1, ...]: where each run of `counts` starts, then the total."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class _DenseRows:
    """Pool vectors as the rows of one C-contiguous float64 matrix."""

    suffix = ".npy"

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.shape = matrix.shape

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def scores(self, queries: np.ndarray) -> np.ndarray:
        return queries @ self.matrix.T

    def save(self, f) -> None:
        np.save(f, self.matrix, allow_pickle=False)

    @classmethod
    def load(cls, path: Path, count: int, dim: int) -> "_DenseRows":
        matrix = np.load(path, allow_pickle=False)
        if matrix.dtype != np.float64 or matrix.shape != (count, dim):
            raise DataError(f"{path}: vectors are {matrix.dtype} {matrix.shape}, "
                            f"header says float64 {(count, dim)}; {_REBUILD}")
        return cls(matrix)


class _SparseRows:
    """Pool vectors as CSR rows: row i has weights[indptr[i]:indptr[i+1]] at
    buckets[indptr[i]:indptr[i+1]], every other bucket being 0."""

    suffix = ".npz"

    def __init__(self, indptr: np.ndarray, buckets: np.ndarray, weights: np.ndarray, dim: int):
        self.indptr, self.buckets, self.weights = indptr, buckets, weights
        self.shape = (len(indptr) - 1, dim)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "_SparseRows":
        rows, buckets = np.nonzero(matrix)
        indptr = _offsets(np.bincount(rows, minlength=matrix.shape[0]))
        return cls(indptr, buckets.astype(np.int32), matrix[rows, buckets], matrix.shape[1])

    @classmethod
    def concatenate(cls, parts: list["_SparseRows"]) -> "_SparseRows":
        indptr = _offsets(np.concatenate([np.diff(part.indptr) for part in parts]))
        return cls(indptr, np.concatenate([part.buckets for part in parts]),
                   np.concatenate([part.weights for part in parts]), parts[0].shape[1])

    def row(self, i: int) -> np.ndarray:
        start, end = self.indptr[i], self.indptr[i + 1]
        dense = np.zeros(self.shape[1], dtype=np.float64)
        dense[self.buckets[start:end]] = self.weights[start:end]
        return dense

    @cached_property
    def _postings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per bucket, the rows holding it and their weights, rows ascending:
        bucket b's entries are [start[b], start[b+1])."""
        order = np.argsort(self.buckets, kind="stable")
        start = _offsets(np.bincount(self.buckets, minlength=self.shape[1]))
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))
        return start, rows[order], self.weights[order]

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """`queries @ M.T`, each query's row summed over its non-zero buckets'
        postings with one `np.bincount`.

        A query at a time bounds the gathered entries by one query's
        postings; stop-word buckets make those lists long in a large pool.
        """
        start, post_rows, post_weights = self._postings
        n = self.shape[0]
        scores = np.empty((len(queries), n), dtype=np.float64)
        for i, query in enumerate(queries):
            bucket = np.flatnonzero(query)
            first, lengths = start[bucket], start[bucket + 1] - start[bucket]
            ends = np.cumsum(lengths)
            # Bucket j's postings are entries first[j] .. first[j] + lengths[j] - 1.
            entries = np.arange(ends[-1]) + np.repeat(first - (ends - lengths), lengths)
            weights = np.repeat(query[bucket], lengths) * post_weights[entries]
            scores[i] = np.bincount(post_rows[entries], weights=weights, minlength=n)
        return scores

    def save(self, f) -> None:
        np.savez(f, indptr=self.indptr, buckets=self.buckets, weights=self.weights)

    @classmethod
    def load(cls, path: Path, count: int, dim: int) -> "_SparseRows":
        # np.load leaks the file it opened when the zip is unreadable.
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as arrays:
            try:
                indptr, buckets, weights = (arrays[name] for name in ("indptr", "buckets", "weights"))
            except KeyError as exc:
                raise DataError(f"{path}: index rows lack {exc}; {_REBUILD}") from None
        nnz = int(indptr[-1]) if indptr.ndim == 1 and indptr.size else -1
        valid = (
            indptr.dtype == np.int64 and indptr.shape == (count + 1,) and indptr[0] == 0
            and np.all(np.diff(indptr) >= 0)
            and buckets.dtype == np.int32 and buckets.shape == (nnz,)
            and weights.dtype == np.float64 and weights.shape == (nnz,)
            and (nnz == 0 or 0 <= buckets.min() and buckets.max() < dim)
        )
        if not valid:
            raise DataError(
                f"{path}: CSR rows of shapes indptr {indptr.shape}, buckets {buckets.shape}, "
                f"weights {weights.shape} do not fit the header's {count} rows of dim {dim}; "
                f"{_REBUILD}"
            )
        return cls(indptr, buckets, weights, dim)


class VectorIndex:
    """Immutable set of pool vectors with exact cosine search.

    `vectors` is a (count, dim) matrix, or rows `build_index` made. A
    `BuiltinProvider` index keeps them sparse; any other keeps them dense.
    `pool_sha256` is the SHA-256 of the pool file the vectors were built
    from, when known.
    """

    def __init__(self, provider, ids: list[str], vectors, pool_sha256: str | None = None):
        if len(ids) != len(set(ids)):
            raise DataError("duplicate item ids in index")
        self.provider = provider
        self.pool_sha256 = pool_sha256
        self._ids = list(ids)
        self._rows = {item_id: row for row, item_id in enumerate(self._ids)}
        if not isinstance(vectors, (_DenseRows, _SparseRows)):
            # No copy when `vectors` is already a C-contiguous float64 matrix.
            matrix = np.ascontiguousarray(vectors, dtype=np.float64)
            if matrix.ndim != 2:
                raise DataError(f"{len(self._ids)} ids but vectors of shape {matrix.shape}")
            sparse = isinstance(provider, BuiltinProvider)
            vectors = _SparseRows.from_matrix(matrix) if sparse else _DenseRows(matrix)
        self._vectors = vectors
        if vectors.shape[0] != len(self._ids):
            raise DataError(f"{len(self._ids)} ids but vectors of shape {vectors.shape}")

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def embed_query(self, item: McqItem) -> np.ndarray:
        # Similarity is over question text only; contexts stay out.
        return self.provider.embed(item.question)

    def rank_all(self, query_vector: np.ndarray, exclude_id: str | None = None,
                 limit: int | None = None) -> list[tuple[str, float]]:
        """(id, cosine) pairs, best first; only the first `limit` when given."""
        [ranked] = self._rank_block([query_vector], [exclude_id], limit)
        return ranked

    def _rank_block(self, query_vectors, exclude_ids: list[str | None],
                    limit: int | None) -> list[list[tuple[str, float]]]:
        """Rank up to QUERY_BLOCK queries with at most one block score.

        Entry i holds the (id, cosine) pairs of query i without the pool row
        `exclude_ids[i]`, with the scores and order of one `np.dot` per pair
        sorted by (-score, id). With a limit, the block score narrows each
        query's rows to those within SCORE_TIE_BAND of its limit-th best;
        without one, every row is scored per pair.
        """
        queries = np.asarray(query_vectors, dtype=np.float64)
        n = len(self._ids)
        scores = None
        ranked = []
        for i, (query_vector, exclude_id) in enumerate(zip(queries, exclude_ids)):
            excluded = self._rows.get(exclude_id)
            rows = range(n)
            if limit is not None and limit < n - (excluded is not None):
                if scores is None:
                    scores = self._vectors.scores(queries)
                row_scores = scores[i]
                if excluded is not None:
                    row_scores[excluded] = -np.inf
                # Rows sharing no bucket with the query score exactly 0, often
                # most of the pool, and np.partition slows ~10x on so many
                # equal values. With `limit` positive scores, the limit-th
                # best is among them.
                positive = row_scores[row_scores > 0]
                candidates = positive if len(positive) >= limit else row_scores
                kth = np.partition(candidates, -limit)[-limit]
                rows = np.flatnonzero(row_scores >= kth - SCORE_TIE_BAND)
            scored = [
                (self._ids[row], float(np.dot(self._vectors.row(row), query_vector)))
                for row in rows
                if row != excluded
            ]
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            ranked.append(scored[:limit])
        return ranked

    def nearest_many(self, queries: list[McqItem], k: int) -> Iterator[NeighborSet]:
        """Each query's k nearest pool items, in query order, ranked QUERY_BLOCK at a time.

        A block's query vectors live only as long as its neighbor sets do.
        """
        if k < 1:
            raise DataError("k must be >= 1")
        if k > len(self._ids):
            raise DataError(f"k={k} exceeds pool size {len(self._ids)}")
        for start in range(0, len(queries), QUERY_BLOCK):
            block = queries[start:start + QUERY_BLOCK]
            vectors = np.stack([self.embed_query(query) for query in block])
            ranked = self._rank_block(vectors, [query.id for query in block], limit=k)
            for query, query_vector, neighbors in zip(block, vectors, ranked):
                if len(neighbors) < k:
                    raise DataError(f"k={k} exceeds available pool after excluding {query.id}")
                yield NeighborSet(query_id=query.id, neighbors=tuple(neighbors),
                                  query_vector=query_vector)

    def nearest(self, query: McqItem, k: int) -> NeighborSet:
        [neighbor_set] = self.nearest_many([query], k)
        return neighbor_set

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the rows beside `path` (`.npz` sparse, `.npy` dense), then
        the header and ids to `path`."""
        path = Path(path)
        header: dict = {
            "schema": INDEX_SCHEMA,
            "provider_id": self.provider.provider_id,
            "dim": int(self._vectors.shape[1]),
            "count": len(self._ids),
            "pool_sha256": self.pool_sha256,
        }
        if isinstance(self.provider, BuiltinProvider):
            header["idf"] = {str(b): w for b, w in sorted(self.provider.idf.items())}
            header["n_docs"] = self.provider.n_docs
        with replace_atomically(path.with_suffix(self._vectors.suffix)) as f:
            self._vectors.save(f)
        lines = [json.dumps(header, sort_keys=True)]
        lines += [json.dumps({"item_id": item_id}) for item_id in self._ids]
        with replace_atomically(path) as f:
            f.write(("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path, provider=None) -> "VectorIndex":
        path = Path(path)
        if not path.exists():
            raise DataError(f"index file missing: {path}")
        with open(path, encoding="utf-8") as f:
            try:
                header = json.loads(f.readline())
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: bad index header: {exc}") from exc
            if header.get("schema") != INDEX_SCHEMA:
                raise DataError(
                    f"{path}: index schema {header.get('schema')} is not {INDEX_SCHEMA}; {_REBUILD}"
                )
            if provider is None:
                if not header["provider_id"].startswith("builtin-tfidf-v1"):
                    raise DataError(
                        f"{path}: index was built by {header['provider_id']}; pass that provider to load it"
                    )
                provider = BuiltinProvider(
                    dim=header["dim"],
                    idf={int(b): w for b, w in header.get("idf", {}).items()},
                    n_docs=header.get("n_docs", 0),
                )
            if provider.provider_id != header["provider_id"]:
                raise DataError(
                    f"{path}: index provider {header['provider_id']} does not match {provider.provider_id}"
                )
            if isinstance(provider, RemoteProvider):
                if provider.dim not in (None, header["dim"]):
                    raise DataError(f"{path}: index dim {header['dim']} != provider dim {provider.dim}")
                # A query embedding of any other dimension is then refused.
                provider.dim = header["dim"]
            rows = [line for line in f if line.strip()]
        try:
            ids = [row["item_id"] for row in json.loads("[" + ",".join(rows) + "]")]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: bad index row: {exc}") from exc
        if len(ids) != header["count"]:
            raise DataError(f"{path}: header count {header['count']} != {len(ids)} rows")
        storage = _SparseRows if isinstance(provider, BuiltinProvider) else _DenseRows
        vectors_path = path.with_suffix(storage.suffix)
        if not vectors_path.exists():
            raise DataError(f"index vectors missing: {vectors_path}; {_REBUILD}")
        try:
            vectors = storage.load(vectors_path, header["count"], header["dim"])
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{vectors_path}: unreadable index vectors: {exc}; {_REBUILD}") from exc
        return cls(provider, ids, vectors, pool_sha256=header.get("pool_sha256"))


def build_index(pool: list[McqItem], provider=None, pool_sha256: str | None = None) -> VectorIndex:
    """Embed every pool item's question; fit the builtin provider if none given.

    `pool_sha256` is the SHA-256 of the file `pool` was read from.

    The builtin fit and rows tokenize each question once, and only the
    non-zero entries of each EMBED_BLOCK rows are kept, as CSR arrays. A
    given provider's rows go into one preallocated matrix, sized by the
    first embedding, so its vectors are never held twice.
    """
    if not pool:
        raise DataError("cannot index an empty pool")
    ids = [item.id for item in pool]
    if provider is None:
        provider = BuiltinProvider()
        bucket_lists = [provider.buckets(item.question) for item in pool]
        provider._fit(bucket_lists)
        rows = _SparseRows.concatenate([
            _SparseRows.from_matrix(provider._embed_rows(bucket_lists[start:start + EMBED_BLOCK]))
            for start in range(0, len(pool), EMBED_BLOCK)
        ])
        return VectorIndex(provider, ids, rows, pool_sha256=pool_sha256)
    first = provider.embed(pool[0].question)
    matrix = np.empty((len(pool), first.shape[0]), dtype=np.float64)
    matrix[0] = first
    for row, item in enumerate(pool[1:], start=1):
        matrix[row] = provider.embed(item.question)
    return VectorIndex(provider, ids, matrix, pool_sha256=pool_sha256)


def nearest(query: McqItem, index: VectorIndex, k: int) -> NeighborSet:
    return index.nearest(query, k)


def next_most_similar(neighbor_set: NeighborSet, consumed: set[str], index: VectorIndex) -> str:
    """Highest-similarity pool id not yet consumed, beyond the initial k if needed."""
    if neighbor_set.query_vector is None:
        raise DataError(f"{neighbor_set.query_id}: neighbor set lacks its query vector")
    # At most len(consumed) of the best len(consumed) + 1 can be consumed.
    ranked = index.rank_all(neighbor_set.query_vector, exclude_id=neighbor_set.query_id,
                            limit=len(consumed) + 1)
    for item_id, _ in ranked:
        if item_id not in consumed:
            return item_id
    raise DataError(f"{neighbor_set.query_id}: pool exhausted while seeking replacements")
