"""Embedding index and exact cosine nearest-neighbor search over the pool.

Similarity is the cosine of question-text embeddings (contexts excluded) in
float64. Ordering is (similarity descending, item id ascending); search is
exhaustive, never approximate, and its scores equal a brute-force scan of one
`np.dot` per pair bit for bit. Pool vectors are the rows of one C-contiguous
matrix `M`. Queries are scored QUERY_BLOCK at a time with one `Q @ M.T`, so
the pool streams through memory once per block rather than once per query.
That product's rounding differs from the per-pair dot by about dim * eps;
every row within SCORE_TIE_BAND (far wider) of a query's k-th best is then
re-scored with its own `np.dot` and sorted. No row of the true top k can fall
outside that band, so the result is the brute-force one, ties included.

Two embedding providers exist: a remote one backed by an embeddings endpoint,
and a builtin deterministic lexical one (hashed term frequency weighted by
inverse document frequency, L2-normalized) that needs no network and anchors
the offline test suite. An index persists as two files: `<name>.jsonl` holds
a header with the provider metadata and the SHA-256 of the pool file it was
built from, then one `{"item_id": ...}` row per pool item in row order; the
sibling `<name>.npy` holds the (count, dim) float64 matrix.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
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
INDEX_SCHEMA = 2
# Queries scored per matrix product. Larger blocks stream the pool less often
# but grow BLAS work buffers; at 16 the product is 1.3 MB for a 10k pool.
QUERY_BLOCK = 16
# Rows whose matrix-product score is within this of the k-th best are
# re-scored per pair. It is far above the ~dim * eps (~6e-14 at dim 512) by
# which `M @ q` and a per-pair `np.dot` can differ.
SCORE_TIE_BAND = 1e-9

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
    unseen at fit time get the df=0 weight.
    """

    def __init__(self, dim: int = DEFAULT_DIM, idf: dict[int, float] | None = None, n_docs: int = 0):
        self.dim = dim
        self.idf = dict(idf or {})
        self.n_docs = n_docs

    @property
    def provider_id(self) -> str:
        return f"builtin-tfidf-v1:dim={self.dim}"

    @classmethod
    def fit(cls, texts: list[str], dim: int = DEFAULT_DIM) -> "BuiltinProvider":
        df: dict[int, int] = {}
        for text in texts:
            buckets = {token_bucket(tok, dim) for tok in tokenize(text)}
            for b in buckets:
                df[b] = df.get(b, 0) + 1
        n = len(texts)
        idf = {b: math.log((1 + n) / (1 + count)) + 1.0 for b, count in df.items()}
        return cls(dim=dim, idf=idf, n_docs=n)

    def _bucket_weight(self, bucket: int) -> float:
        try:
            return self.idf[bucket]
        except KeyError:
            return math.log((1 + self.n_docs) / 1) + 1.0

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise DataError("cannot embed empty text")
        vec = np.zeros(self.dim, dtype=np.float64)
        for tok in tokens:
            b = token_bucket(tok, self.dim)
            vec[b] += self._bucket_weight(b)
        norm = float(np.linalg.norm(vec))
        return vec / norm


class RemoteProvider:
    """Embeddings from an endpoint; dimension fixed by the first response."""

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


class VectorIndex:
    """Immutable set of pool vectors with exact cosine search.

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
        # No copy when `vectors` is already a C-contiguous float64 matrix.
        self._matrix = np.ascontiguousarray(vectors, dtype=np.float64)
        if self._matrix.ndim != 2 or self._matrix.shape[0] != len(self._ids):
            raise DataError(f"{len(self._ids)} ids but vectors of shape {self._matrix.shape}")

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
        """Rank up to QUERY_BLOCK queries with at most one `Q @ M.T`.

        Entry i holds the (id, cosine) pairs of query i without the pool row
        `exclude_ids[i]`, with the scores and order of one `np.dot` per pair
        sorted by (-score, id). With a limit, the product narrows each query's
        rows to those within SCORE_TIE_BAND of its limit-th best; without
        one, every row is scored per pair.
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
                    scores = queries @ self._matrix.T
                row_scores = scores[i]
                if excluded is not None:
                    row_scores[excluded] = -np.inf
                kth = np.partition(row_scores, -limit)[-limit]
                rows = np.flatnonzero(row_scores >= kth - SCORE_TIE_BAND)
            scored = [
                (self._ids[row], float(np.dot(self._matrix[row], query_vector)))
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
        """Write the vectors to the sibling `.npy`, then the header and ids to `path`."""
        path = Path(path)
        header: dict = {
            "schema": INDEX_SCHEMA,
            "provider_id": self.provider.provider_id,
            "dim": int(self._matrix.shape[1]),
            "count": len(self._ids),
            "pool_sha256": self.pool_sha256,
        }
        if isinstance(self.provider, BuiltinProvider):
            header["idf"] = {str(b): w for b, w in sorted(self.provider.idf.items())}
            header["n_docs"] = self.provider.n_docs
        with replace_atomically(_vectors_path(path)) as f:
            np.save(f, self._matrix, allow_pickle=False)
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
                    f"{path}: index schema {header.get('schema')} is not {INDEX_SCHEMA}; "
                    f"rebuild it with `medharness index`"
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
            rows = [line for line in f if line.strip()]
        try:
            ids = [row["item_id"] for row in json.loads("[" + ",".join(rows) + "]")]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: bad index row: {exc}") from exc
        if len(ids) != header["count"]:
            raise DataError(f"{path}: header count {header['count']} != {len(ids)} rows")
        vectors_path = _vectors_path(path)
        if not vectors_path.exists():
            raise DataError(f"index vectors missing: {vectors_path}; rebuild with `medharness index`")
        try:
            vectors = np.load(vectors_path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise DataError(f"{vectors_path}: unreadable index vectors: {exc}") from exc
        expected = (header["count"], header["dim"])
        if vectors.dtype != np.float64 or vectors.shape != expected:
            raise DataError(
                f"{vectors_path}: vectors are {vectors.dtype} {vectors.shape}, "
                f"header says float64 {expected}; rebuild with `medharness index`"
            )
        return cls(provider, ids, vectors, pool_sha256=header.get("pool_sha256"))


def _vectors_path(index_path: Path) -> Path:
    return index_path.with_suffix(".npy")


def build_index(pool: list[McqItem], provider=None, pool_sha256: str | None = None) -> VectorIndex:
    """Embed every pool item's question; fit the builtin provider if none given.

    `pool_sha256` is the SHA-256 of the file `pool` was read from.

    Rows are written into one preallocated matrix, sized by the first
    embedding, so the pool's vectors are never held twice.
    """
    if not pool:
        raise DataError("cannot index an empty pool")
    if provider is None:
        provider = BuiltinProvider.fit([item.question for item in pool])
    first = provider.embed(pool[0].question)
    matrix = np.empty((len(pool), first.shape[0]), dtype=np.float64)
    matrix[0] = first
    for row, item in enumerate(pool[1:], start=1):
        matrix[row] = provider.embed(item.question)
    return VectorIndex(provider, [item.id for item in pool], matrix, pool_sha256=pool_sha256)


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
