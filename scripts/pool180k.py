"""Retrieval at MedMCQA-train size: a synthetic 180k pool, builtin provider.

    PYTHONPATH=src python3 scripts/pool180k.py [--pool 180000] [--queries 200]
                                               [--modes postings,dense] [--src DIR]

Question text mixes stop words with content words from a Zipfian vocabulary,
so a few hash buckets are in most questions, as on real text; those buckets'
postings decide the cost of sparse scoring. Each mode runs in its own
process, so its peak RSS is its own:

- `postings`: `build_index`, `save`, `VectorIndex.load`, then `nearest_many`
  over the queries with the loaded index.
- `dense`: the same rows as one (pool, dim) float64 matrix behind a
  non-builtin provider, which ranks with `Q @ M.T`; then `nearest_many`.

Both modes must return the same neighbours. `--src` points at another
checkout's `src/`, to time its `build_index`, `save`, `load` and ranking
(mode `postings`) instead. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

STOP_WORDS = ("the of a with is in and which following most to for patient by on an "
              "are at be from as this that or was not common seen treatment cause").split()
STOP_SHARE = 0.4  # share of a question's tokens that are stop words
VOCABULARY = 40_000
ZIPF_S = 1.1
SEED = 180


@dataclass(frozen=True, slots=True)
class Question:
    """The two fields `build_index` and `nearest_many` read from an item."""

    id: str
    question: str


def make_questions(n: int, prefix: str, seed: int) -> list[Question]:
    import numpy as np

    rng = np.random.default_rng(seed)
    # Made-up words, fixed by SEED alone, so pool and queries share them.
    vocab_rng = np.random.default_rng(SEED)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lengths = vocab_rng.integers(4, 12, VOCABULARY)
    vocab = ["".join(vocab_rng.choice(letters, size)) for size in lengths]
    ranks = np.arange(1, VOCABULARY + 1)
    content_p = ranks ** -ZIPF_S / np.sum(ranks ** -ZIPF_S)
    stop_ranks = np.arange(1, len(STOP_WORDS) + 1)
    stop_p = stop_ranks ** -1.0 / np.sum(stop_ranks ** -1.0)
    words_per_question = rng.integers(6, 25, n)
    total = int(words_per_question.sum())
    is_stop = rng.random(total) < STOP_SHARE
    content = rng.choice(VOCABULARY, total, p=content_p)
    stop = rng.choice(len(STOP_WORDS), total, p=stop_p)
    tokens = [STOP_WORDS[s] if flag else vocab[c] for flag, s, c in zip(is_stop, stop, content)]
    questions, at = [], 0
    for i, count in enumerate(words_per_question):
        text = " ".join(tokens[at:at + count]).capitalize() + "?"
        questions.append(Question(f"{prefix}-{i:06d}", text))
        at += count
    return questions


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_mode(mode: str, pool_size: int, n_queries: int, workdir: Path) -> dict:
    import numpy as np

    from medharness.retrieval import VectorIndex, build_index

    pool = make_questions(pool_size, "train", seed=1)
    queries = make_questions(n_queries, "test", seed=2)
    # ru_maxrss is a high-water mark: each rss_after_* is the peak so far.
    result: dict = {"mode": mode, "rss_after_inputs_mb": round(peak_rss_mb(), 1)}
    start = time.perf_counter()
    index = build_index(pool)
    result["build_s"] = round(time.perf_counter() - start, 3)
    result["rss_after_build_mb"] = round(peak_rss_mb(), 1)
    provider = index.provider
    if mode == "postings":
        path = workdir / "pool.jsonl"
        start = time.perf_counter()
        index.save(path)
        result["save_s"] = round(time.perf_counter() - start, 3)
        result["index_files_mb"] = {
            p.name: round(p.stat().st_size / 1e6, 2) for p in sorted(workdir.iterdir())
        }
        del index
        start = time.perf_counter()
        index = VectorIndex.load(path)
        result["load_s"] = round(time.perf_counter() - start, 3)
    else:
        class DenseOnly:
            """The builtin embeddings behind a provider that is not builtin."""
            provider_id = "remote:dense-comparison"
            embed = staticmethod(provider.embed)

        matrix = np.empty((len(pool), provider.dim), dtype=np.float64)
        for row, item in enumerate(pool):
            matrix[row] = provider.embed(item.question)
        del index
        index = VectorIndex(DenseOnly(), [item.id for item in pool], matrix)
        del matrix
        result["matrix_mb"] = round(len(pool) * provider.dim * 8 / 1e6, 1)
    list(index.nearest_many(queries[:16], 5))  # first use builds the postings
    start = time.perf_counter()
    neighbours = [ns.neighbors for ns in index.nearest_many(queries, 5)]
    result["query_ms"] = round((time.perf_counter() - start) * 1000 / len(queries), 3)
    result["peak_rss_mb"] = round(peak_rss_mb(), 1)
    result["neighbours_sha"] = str(hash(tuple(neighbours)) & 0xFFFFFFFF)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=180_000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--modes", default="postings,dense")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(run_mode(args.child, args.pool, args.queries, Path(tmp))))
        return
    results = []
    for mode in args.modes.split(","):
        env = {**os.environ, "PYTHONPATH": args.src, "PYTHONHASHSEED": "0"}
        out = subprocess.run([sys.executable, __file__, "--child", mode, "--pool", str(args.pool),
                              "--queries", str(args.queries)],
                             env=env, check=True, capture_output=True, text=True).stdout
        results.append(json.loads(out))
    print(json.dumps({"pool": args.pool, "queries": args.queries, "src": args.src,
                      "results": results}, indent=1))


if __name__ == "__main__":
    main()
