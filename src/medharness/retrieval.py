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
a header with the provider metadata, the SHA-256 of the pool file it was
built from and the name of its rows file, then one `{"item_id": ...}` row
per pool item in row order. The rows sit beside it, named by their content:
a builtin index writes `<name>.<digest>.npz` with the CSR arrays `indptr`,
`buckets` and `weights`; a remote index writes `<name>.<digest>.npy` with the
(count, dim) float64 matrix. The header's rename commits a save, so a crash
before it leaves the old header over the old rows.
"""

from __future__ import annotations

import math
import re
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b, sha256
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import McqItem, read_headed, replace_atomically, write_headed
from .errors import DataError, EndpointError

__all__ = [
    "NeighborSet",
    "BuiltinProvider",
    "EmbeddingError",
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
INDEX_SCHEMA = 4
# Queries scored per block. Larger blocks stream the pool less often but grow
# the block's score buffer; at 16 it is 1.3 MB for a 10k pool.
QUERY_BLOCK = 16
# Pool questions embedded per block while building a builtin index; each
# block's rows are summed and normed in one dense (EMBED_BLOCK, dim) buffer
# (4 MB at dim 512), and the index keeps only their non-zero entries.
EMBED_BLOCK = 1024
# Rows whose block score is within this of the k-th best are re-scored per
# pair. It is far above the ~dim * eps (~6e-14 at dim 512) by which a block
# score and a per-pair `np.dot` can differ.
SCORE_TIE_BAND = 1e-9
_REBUILD = "rebuild with `medharness index`"
# The largest builtin dim an index header may name: its weight array is 8 MB.
_MAX_DIM = 1 << 20

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
    once per provider, and a token's weight is gathered from one array of
    every bucket's weight, kept beside `idf`.
    """

    def __init__(self, dim: int = DEFAULT_DIM, idf: dict[int, float] | None = None, n_docs: int = 0):
        if isinstance(dim, bool) or not isinstance(dim, int) or not 0 < dim <= _MAX_DIM:
            raise ValueError(f"dim must be an int in 1..{_MAX_DIM}, got {dim!r}")
        self.dim = dim
        self._token_buckets: dict[str, int] = {}
        self._set_idf(dict(idf or {}), n_docs)

    @property
    def provider_id(self) -> str:
        return f"builtin-tfidf-v1:dim={self.dim}"

    @classmethod
    def fit(cls, texts: list[str]) -> "BuiltinProvider":
        provider = cls()
        provider._fit([provider.buckets(text) for text in texts])
        return provider

    def _set_idf(self, idf: dict[int, float], n_docs: int) -> None:
        if not all(0 <= b < self.dim for b in idf):
            raise ValueError(f"idf names a bucket outside 0..{self.dim - 1}")
        if not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in idf.values()):
            raise ValueError("idf weights must be numbers")
        self.idf = idf
        self.n_docs = n_docs
        self._weights = np.full(self.dim, _idf(n_docs, 0))
        self._weights[list(idf)] = list(idf.values())

    def _fit(self, bucket_lists: list[list[int]]) -> None:
        """Fit idf on the texts' buckets; df is counted EMBED_BLOCK texts at a time."""
        df = np.zeros(self.dim, dtype=np.intp)
        for start in range(0, len(bucket_lists), EMBED_BLOCK):
            block = bucket_lists[start:start + EMBED_BLOCK]
            keys, _ = self._keys(block)
            df += np.bincount(_distinct(keys, len(block) * self.dim) % self.dim,
                              minlength=self.dim)
        n = len(bucket_lists)
        self._set_idf({b: _idf(n, count) for b, count in enumerate(df.tolist()) if count}, n)

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
        """A bucket's weight read from `idf`, apart from the array rows gather from."""
        try:
            return self.idf[bucket]
        except KeyError:
            return _idf(self.n_docs, 0)

    def embed(self, text: str) -> np.ndarray:
        rows, _ = self._unit_rows([self.buckets(text)])
        return rows[0]

    def _keys(self, bucket_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        """Each token's `row * dim + bucket` key, row being its text's
        position in `bucket_lists`, and its bucket; tokens in text order."""
        counts = np.fromiter(map(len, bucket_lists), dtype=np.intp, count=len(bucket_lists))
        buckets = np.fromiter(chain.from_iterable(bucket_lists), dtype=np.intp,
                              count=int(counts.sum()))
        row_starts = np.arange(0, len(bucket_lists) * self.dim, self.dim, dtype=np.intp)
        return np.repeat(row_starts, counts) + buckets, buckets

    def _unit_rows(self, bucket_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
        """One unit row per text's buckets, as a (len, dim) block, and the
        block's `_keys`.

        Each token adds its bucket's weight, in token order (`np.bincount`
        sums in input order), then each row is divided by its norm taken as
        `np.linalg.norm` takes it: the square root of a dot over the dense
        row, which a sum over the non-zeros alone would round differently.
        """
        if not all(bucket_lists):
            raise DataError("cannot embed empty text: it has no a-z or 0-9 token")
        keys, buckets = self._keys(bucket_lists)
        n = len(bucket_lists)
        rows = np.bincount(keys, weights=self._weights[buckets],
                           minlength=n * self.dim).reshape(n, self.dim)
        rows /= np.sqrt([row.dot(row) for row in rows])[:, None]
        return rows, keys

    def _sparse_rows(self, bucket_lists: list[list[int]]) -> "_SparseRows":
        """`_unit_rows` as CSR rows: a row's buckets are its distinct keys'."""
        rows, keys = self._unit_rows(bucket_lists)
        keys = _distinct(keys, rows.size)
        indptr = _offsets(np.bincount(keys // self.dim, minlength=len(bucket_lists)))
        return _SparseRows(indptr, (keys % self.dim).astype(np.int32), rows.ravel()[keys],
                           self.dim)


def _distinct(keys: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of `keys`, all below `size`, ascending.

    A presence mask, not `np.sort` or `np.unique`: numpy 2's hashing
    `np.unique` is about 15x slower on a block's keys, and either pages in
    sort code (0.3 MB of RSS) that an `index` run uses nowhere else.
    """
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present)


def _idf(n_docs: int, df: int) -> float:
    """A bucket's weight: ln((1+N)/(1+df)) + 1."""
    return math.log((1 + n_docs) / (1 + df)) + 1.0


class EmbeddingError(DataError):
    """An item whose question cannot be embedded; `item_id` names it, and
    `row`, for a pool item, is its position in the pool `build_index` got."""

    def __init__(self, item_id: str, reason, row: int | None = None):
        super().__init__(f"{item_id}: {reason}")
        self.item_id = item_id
        self.row = row


def _embed_item(provider, item, row: int | None = None) -> np.ndarray:
    """The item's question embedded; a DataError names the item."""
    try:
        return provider.embed(item.question)
    except DataError as exc:
        raise EmbeddingError(item.id, exc, row) from None


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

    def embed(self, text: str) -> np.ndarray:
        if not text.strip():
            raise DataError("cannot embed empty text")
        [values] = self.endpoint.embed_batch([text], self.model)
        # `json` reads NaN and Infinity, and numpy would take strings or nesting.
        if not (isinstance(values, list) and all(
                isinstance(value, (int, float)) and not isinstance(value, bool)
                for value in values)):
            raise EndpointError(f"embedding is not a flat list of numbers: {values!r:.80}")
        vec = np.asarray(values, dtype=np.float64)
        if not np.isfinite(vec).all():
            raise EndpointError(f"embedding holds a value that is not finite: {values!r:.80}")
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
        self.arrays = (matrix,)

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
        self.arrays = (indptr, buckets, weights)

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
        bucket b's entries are [start[b], start[b+1]). Bucket ids cast to the
        narrowest unsigned type that holds them sort by radix, in the same order."""
        order = np.argsort(self.buckets.astype(np.min_scalar_type(self.shape[1] - 1)),
                           kind="stable")
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
        return _embed_item(self.provider, item)

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
        """Write the rows beside `path` as `<name>.<digest>.npz` (sparse) or
        `.npy` (dense), the digest taken over their arrays, then the header
        and ids to `path`.

        The header names its rows file, and its rename is the one commit
        point: rows files of earlier saves are deleted only after it.
        """
        path = Path(path)
        digest = sha256()
        for array in self._vectors.arrays:
            digest.update(f"{array.dtype.str}{array.shape};".encode())
            digest.update(np.ascontiguousarray(array))
        rows_path = path.with_name(f"{path.stem}.{digest.hexdigest()[:16]}{self._vectors.suffix}")
        header: dict = {
            "schema": INDEX_SCHEMA,
            "provider_id": self.provider.provider_id,
            "dim": int(self._vectors.shape[1]),
            "count": len(self._ids),
            "pool_sha256": self.pool_sha256,
            "rows": rows_path.name,
        }
        if isinstance(self.provider, BuiltinProvider):
            header["idf"] = {str(b): w for b, w in sorted(self.provider.idf.items())}
            header["n_docs"] = self.provider.n_docs
        with replace_atomically(rows_path) as f:
            self._vectors.save(f)
        write_headed(path, header, self._ids, encode=_id_row)
        superseded = re.compile(re.escape(path.stem) + r"(\.[0-9a-f]{16})?\.np[yz]")
        for old in path.parent.iterdir():
            if old != rows_path and superseded.fullmatch(old.name):
                old.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path, provider=None) -> "VectorIndex":
        path = Path(path)
        if not path.exists():
            raise DataError(f"index file missing: {path}")
        try:
            header, rows = read_headed(path)
            if header.get("schema") != INDEX_SCHEMA:
                raise DataError(f"{path}: index schema {header.get('schema')} is not "
                                f"{INDEX_SCHEMA}; {_REBUILD}")
            provider_id, dim, count = header["provider_id"], header["dim"], header["count"]
            rows_name, idf = header["rows"], header.get("idf", {})
            ids = [row["item_id"] for row in rows]
            if provider is None and provider_id.startswith("builtin-tfidf-v1"):
                provider = BuiltinProvider(dim=dim, idf={int(b): w for b, w in idf.items()},
                                           n_docs=header.get("n_docs", 0))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: bad index file: {exc!r}; {_REBUILD}") from exc
        if provider is None:
            raise DataError(f"{path}: index was built by {provider_id}; "
                            f"pass that provider to load it")
        if provider.provider_id != provider_id:
            raise DataError(f"{path}: index provider {provider_id} does not match "
                            f"{provider.provider_id}")
        if isinstance(provider, RemoteProvider):
            if provider.dim not in (None, dim):
                raise DataError(f"{path}: index dim {dim} != provider dim {provider.dim}")
            # A query embedding of any other dimension is then refused.
            provider.dim = dim
        if len(ids) != count:
            raise DataError(f"{path}: header count {count} != {len(ids)} rows")
        storage = _SparseRows if isinstance(provider, BuiltinProvider) else _DenseRows
        vectors_path = path.with_name(rows_name)
        if not vectors_path.exists():
            raise DataError(f"index vectors missing: {vectors_path}; {_REBUILD}")
        try:
            vectors = storage.load(vectors_path, count, dim)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{vectors_path}: unreadable index vectors: {exc}; {_REBUILD}") from exc
        return cls(provider, ids, vectors, pool_sha256=header.get("pool_sha256"))


def _id_row(item_id: str) -> str:
    """`json.dumps({"item_id": item_id})`, without an encoder built per row."""
    return '{"item_id": ' + encode_basestring_ascii(item_id) + "}"


def build_index(pool: list, provider=None, pool_sha256: str | None = None) -> VectorIndex:
    """Embed every pool item's question; fit the builtin provider if none given.

    Only each item's `id` and `question` are read, as `CorpusFile.questions`
    gives them. `pool_sha256` is the SHA-256 of the file `pool` was read from.

    The builtin fit and rows tokenize each question once, and build the
    CSR arrays of EMBED_BLOCK rows at a time straight from their buckets. A
    given provider's rows go into one preallocated matrix, sized by the
    first embedding, so its vectors are never held twice. An item whose
    question cannot be embedded raises `EmbeddingError`.
    """
    if not pool:
        raise DataError("cannot index an empty pool")
    ids = [item.id for item in pool]
    if provider is None:
        provider = BuiltinProvider()
        bucket_lists = [provider.buckets(item.question) for item in pool]
        provider._fit(bucket_lists)
        try:
            rows = _SparseRows.concatenate([
                provider._sparse_rows(bucket_lists[start:start + EMBED_BLOCK])
                for start in range(0, len(pool), EMBED_BLOCK)
            ])
        except DataError as exc:
            row = bucket_lists.index([])
            raise EmbeddingError(pool[row].id, exc, row) from None
        return VectorIndex(provider, ids, rows, pool_sha256=pool_sha256)
    first = _embed_item(provider, pool[0], 0)
    matrix = np.empty((len(pool), first.shape[0]), dtype=np.float64)
    matrix[0] = first
    for row, item in enumerate(pool[1:], start=1):
        matrix[row] = _embed_item(provider, item, row)
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
