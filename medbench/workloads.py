"""The benchmark's three workloads: inputs, program set-up, correctness gates.

Each workload builds its inputs from the seeded generators the test suite
already has (`tests/test_acceptance.build_toy_benchmark`,
`tests/conftest.make_item`), starts what the program talks to, and names the
program's own set-up commands (`index`, `gen-cot`) and the one CLI command a
timed pass repeats. Only the set-up commands count towards `setup_s`. After a
pass, `gate` checks that pass's outputs and accounts its failures.

- `ladder_toy` is the only workload that runs every ladder stage. The toy
  generator pins config seed 0 because its scripted answer table depends on
  it, so the workload seed changes nothing here.
- `knn_pool10k` is retrieval at MedQA-train size: a ~10k-item pool, a read-
  only CoT cache and an index loaded from disk in the timed pass.
- `ensemble_http` is bound by the endpoint: the target is `server.py` on
  loopback with a fixed delay per call, at concurrency 2.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from conftest import make_item
from test_acceptance import TOY_PERCENTS, TOY_THRESHOLDS, build_toy_benchmark

from medharness.config import default_instruction
from medharness.corpus import Dataset, Split, read_normalized, write_normalized
from medharness.parsing import INVALID
from medharness.promptkit import CotExemplar, Strategy, assemble_prompt
from medharness.retrieval import BuiltinProvider
from medharness.runner import LADDER

HERE = Path(__file__).resolve().parent
STAGES = tuple(stage.value for stage in LADDER)
TARGET_MODEL = "bench-target"
TEACHER_MODEL = "bench-teacher"
# knn_pool10k question text: WORDS_PER_QUESTION words from a seeded
# vocabulary of VOCABULARY made-up words.
WORDS_PER_QUESTION = 9
VOCABULARY = 2000
# ensemble_http: the stand-in server's delay per call, and the target's
# concurrency (the 2-core machine's nproc).
DELAY_S = 0.010
CONCURRENCY = 2


class SetupError(RuntimeError):
    """The stand-in server did not start."""


@dataclass
class Prepared:
    """A workload ready to set up and time: where it lives and what it runs.

    `setup` runs after removing `setup_reset`, so every repeat of it starts
    from the same state; a timed pass runs `argv` after removing `reset`.
    """

    workdir: Path
    setup: list[list[str]]        # cli.main arguments of the program's set-up
    setup_reset: tuple[str, ...]  # paths under workdir removed before each set-up
    argv: list[str]               # cli.main arguments of one timed pass
    reset: tuple[str, ...]        # paths under workdir removed before each pass
    server: subprocess.Popen | None = None
    server_log: Path | None = None
    context: dict = field(default_factory=dict)

    def stop(self) -> None:
        if self.server is not None and self.server.poll() is None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        if self.server is not None and self.server.stdout is not None:
            self.server.stdout.close()


@dataclass
class Outcome:
    """What the gate found in one timed pass."""

    ok: bool
    attempted: int
    failed: int
    reason: str = ""
    vote_split_share: float = 0.0
    connections: int = 0


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def failed_ids(rows: list[dict], attempted_ids: list[str], log_events=()) -> set[str]:
    """Item-stage results attempted but not scored, or ended by a transport error.

    Counted from the trace (a missing row, or a run with no answer after a
    transport error) and from the server's log (a presentation that never got
    a 200), so the count means the same whether a failed call is written as
    an invalid answer or not written at all.
    """
    by_id = {row["item_id"]: row for row in rows}
    failed = {item_id for item_id in attempted_ids if item_id not in by_id}
    for row in rows:
        if any(run["transport_errors"] and run["decision"] == INVALID for run in row["per_run"]):
            failed.add(row["item_id"])
    answered = {e["sha"] for e in log_events if e.get("status") == 200}
    errored = {e["sha"] for e in log_events if e.get("status", 200) != 200}
    for row in rows:
        if any(run["prompt_sha256"] in errored - answered for run in row["per_run"]):
            failed.add(row["item_id"])
    return failed


def vote_split_share(rows: list[dict]) -> float:
    """Share of ensemble results whose runs did not all decide the same."""
    ensembles = [row for row in rows if len(row["per_run"]) > 1]
    split = sum(len({run["decision"] for run in row["per_run"]}) > 1 for row in ensembles)
    return split / len(ensembles) if ensembles else 0.0


def vote(decisions: list[str]) -> tuple[str, bool]:
    """The ensemble vote rule, restated: drop invalid runs, take the majority,
    break a tie toward the earliest run holding a tied label."""
    counts: dict[str, int] = {}
    for d in decisions:
        if d != INVALID:
            counts[d] = counts.get(d, 0) + 1
    if not counts:
        return INVALID, False
    top = max(counts.values())
    tied = [label for label, n in counts.items() if n == top]
    if len(tied) == 1:
        return tied[0], False
    return next(d for d in decisions if d in tied), True


def _write_config(path: Path, **overrides) -> None:
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")


class LadderToy:
    """`ablate` over the 1,000-item toy ladder, in-process mocks, cold CoT cache."""

    name = "ladder_toy"

    def __init__(self, seed: int, n_test: int = 1000):
        self.seed = seed  # unused: the generator pins config seed 0
        self.n_test = n_test

    def prepare(self, workdir: Path) -> Prepared:
        config = build_toy_benchmark(workdir, n_test=self.n_test)
        # Set-up embeds the pool; each pass loads that index and starts
        # with a cold CoT cache.
        return Prepared(workdir, setup=[_command("index", config)], setup_reset=("cache",),
                        argv=_command("ablate", config), reset=("out", "cache/cot"))

    def gate(self, prepared: Prepared, out: Path, log_events) -> Outcome:
        ids = [item.id for item in read_normalized(prepared.workdir / "corpus/medqa/test.jsonl")]
        traces = {stage: read_rows(out / "medqa" / f"{stage}.trace.jsonl") for stage in STAGES}
        failed = sum(len(failed_ids(rows, ids)) for rows in traces.values())
        outcome = Outcome(True, len(STAGES) * len(ids), failed,
                          vote_split_share=vote_split_share(traces["ensemble"]))
        table_path = out / "medqa" / "ablation.json"
        if not table_path.exists():
            return _fail(outcome, "no ablation table")
        table = json.loads(table_path.read_text(encoding="utf-8"))["rows"]
        got = [(r["stage"], r["n_items"], r["n_correct"]) for r in table]
        want = [(s, len(ids), min(TOY_THRESHOLDS[s], len(ids))) for s in STAGES]
        if got != want:
            return _fail(outcome, f"ablation table {got} != designed {want}")
        if len(ids) == 1000 and [r["accuracy_percent"] for r in table] != TOY_PERCENTS:
            return _fail(outcome, "ablation percentages differ from TOY_PERCENTS")
        return outcome


def _command(name: str, config: Path, *extra: str) -> list[str]:
    return [name, "--config", str(config), "--dataset", "medqa", *extra]


def _fail(outcome: Outcome, reason: str) -> Outcome:
    outcome.ok = False
    outcome.reason = reason
    return outcome


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice("bcdfghjklmnprstvz") + rng.choice("aeiou")
                          for _ in range(rng.randint(2, 4))))
    return sorted(words)


class KnnPool10k:
    """`run --stage knn_fewshot_cot` against a ~10k-item pool under gold mocks."""

    name = "knn_pool10k"

    def __init__(self, seed: int, n_pool: int = 10_000, n_test: int = 200):
        self.seed = seed
        self.n_pool = n_pool
        self.n_test = n_test

    def _items(self):
        rng = random.Random(self.seed)
        vocab = _vocabulary(rng, VOCABULARY)
        seen: set[str] = set()

        def question() -> str:
            while True:
                text = " ".join(rng.sample(vocab, WORDS_PER_QUESTION)).capitalize() + "?"
                if text not in seen:
                    seen.add(text)
                    return text

        pool = [make_item(i, split=Split.TRAIN, question=question(), gold=rng.choice("ABCD"))
                for i in range(self.n_pool)]
        tests = [make_item(i, question=question(), gold=rng.choice("ABCD"))
                 for i in range(self.n_test)]
        return pool, tests

    def prepare(self, workdir: Path) -> Prepared:
        pool, tests = self._items()
        explanations = {it.question: f"Worked reasoning for pool item {it.id}." for it in pool}
        write_normalized(tests, workdir / "corpus/medqa/test.jsonl")
        write_normalized(pool, workdir / "corpus/medqa/train.jsonl")
        (workdir / "target_policy.json").write_text(json.dumps({
            "policy": "gold", "answers": {it.question: it.gold_text for it in tests},
        }), encoding="utf-8")
        (workdir / "teacher_policy.json").write_text(json.dumps({
            "policy": "gold", "answers": {it.question: it.gold_text for it in pool},
            "explanations": explanations,
        }), encoding="utf-8")
        config = workdir / "config.yaml"
        config.write_text(yaml.safe_dump({
            "corpus_dir": "corpus", "output_dir": "out", "cache_dir": "cache", "seed": self.seed,
            "target": {"url": f"mock:{workdir / 'target_policy.json'}", "model": TARGET_MODEL},
            "teacher": {"url": f"mock:{workdir / 'teacher_policy.json'}", "model": TEACHER_MODEL},
        }), encoding="utf-8")
        return Prepared(workdir, setup=[_command("index", config), _command("gen-cot", config)],
                        setup_reset=("cache",),
                        argv=_command("run", config, "--stage", "knn_fewshot_cot"),
                        reset=("out",),
                        context={"pool": pool, "tests": tests, "explanations": explanations})

    def expected_prompt_hashes(self, prepared: Prepared, k: int = 5) -> dict[str, str]:
        """Prompt SHA-256 per test item, from a brute-force top-k and assemble_prompt.

        Candidates are ranked by one np.dot per pair, the arithmetic
        `test_knn_matches_brute_force_cosine` uses. A matrix product first
        drops pool items scoring more than 1e-9 below the k-th best: its
        rounding differs from the per-pair dot by ~1e-16, so no item of the
        true top k is dropped.
        """
        pool, tests = prepared.context["pool"], prepared.context["tests"]
        explanations = prepared.context["explanations"]
        provider = BuiltinProvider.fit([it.question for it in pool])
        vectors = [provider.embed(it.question) for it in pool]
        matrix = np.vstack(vectors)
        instruction = default_instruction(Dataset.MEDQA)
        hashes = {}
        for item in tests:
            qvec = provider.embed(item.question)
            scores = matrix @ qvec
            band = np.flatnonzero(scores >= np.partition(scores, -k)[-k] - 1e-9)
            scored = sorted(((float(np.dot(vectors[j], qvec)), pool[j].id, j) for j in band),
                            key=lambda t: (-t[0], t[1]))[:k]
            exemplars = [CotExemplar(pool[j], explanations[pool[j].question], verified=True)
                         for _, _, j in scored]
            text = assemble_prompt(Strategy.KNN_FEWSHOT_COT, instruction, exemplars, item).text
            hashes[item.id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return hashes

    def gate(self, prepared: Prepared, out: Path, log_events) -> Outcome:
        if "hashes" not in prepared.context:
            prepared.context["hashes"] = self.expected_prompt_hashes(prepared)
        hashes = prepared.context["hashes"]
        rows = read_rows(out / "medqa" / "knn_fewshot_cot.trace.jsonl")
        outcome = Outcome(True, len(hashes), len(failed_ids(rows, list(hashes))))
        if len(rows) != len(hashes):
            return _fail(outcome, f"{len(rows)} trace rows for {len(hashes)} items")
        for row in rows:
            if not row["correct"]:
                return _fail(outcome, f"{row['item_id']} answered wrongly under the gold mock")
            if row["per_run"][0]["prompt_sha256"] != hashes[row["item_id"]]:
                return _fail(outcome, f"{row['item_id']}: prompt differs from the brute-force one")
        return outcome


class EnsembleHttp:
    """`run --stage ensemble` against the stand-in server at CONCURRENCY."""

    name = "ensemble_http"

    def __init__(self, seed: int, n_test: int = 100, fail_items: tuple[int, ...] = (),
                 unlogged_flips: int = 0, max_retries: int | None = None):
        self.seed = seed
        self.n_test = n_test
        self.flip_share = 0.10 + 0.15 * random.Random(seed).random()
        # Test hooks: test-split positions the server answers with HTTP 500,
        # and answers it flips without logging the flip.
        self.fail_items = fail_items
        self.unlogged_flips = unlogged_flips
        self.max_retries = max_retries

    def prepare(self, workdir: Path) -> Prepared:
        config = build_toy_benchmark(workdir, n_test=self.n_test)
        table = json.loads((workdir / "target_policy.json").read_text(encoding="utf-8"))["table"]
        tests = read_normalized(workdir / "corpus/medqa/test.jsonl")
        spec = workdir / "server_spec.json"
        spec.write_text(json.dumps({
            "answers": {q: row["gold"] for q, row in table.items()},
            "seed": self.seed, "delay_s": DELAY_S, "flip_share": self.flip_share,
            "fail_questions": [tests[i].question for i in self.fail_items],
            "unlogged_flips": self.unlogged_flips,
        }), encoding="utf-8")
        log = workdir / "server_log.jsonl"
        server = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--spec", str(spec), "--log", str(log)],
            stdout=subprocess.PIPE, text=True,
        )
        prepared = Prepared(workdir, setup=[_command("index", config),
                                            _command("gen-cot", config)],
                            setup_reset=("cache",),
                            argv=_command("run", config, "--stage", "ensemble"),
                            reset=("out",), server=server, server_log=log)
        try:
            port = server.stdout.readline().strip()
            if not port.isdigit():
                raise SetupError("stand-in server did not report a port")
            overrides = {"target": {"url": f"http://127.0.0.1:{port}", "model": TARGET_MODEL,
                                    "timeout": 30.0},
                         "seed": self.seed, "concurrency": CONCURRENCY}
            if self.max_retries is not None:
                overrides["retry"] = {"max_retries": self.max_retries}
            _write_config(config, **overrides)
        except BaseException:
            prepared.stop()
            raise
        prepared.context = {"tests": {it.question: it for it in tests}}
        return prepared

    def floor_s(self, calls: int) -> float:
        """The wall time `calls` endpoint calls need at CONCURRENCY."""
        return calls * DELAY_S / CONCURRENCY

    def gate(self, prepared: Prepared, out: Path, log_events) -> Outcome:
        tests = prepared.context["tests"]
        by_id = {it.id: it for it in tests.values()}
        rows = read_rows(out / "medqa" / "ensemble.trace.jsonl")
        failed = failed_ids(rows, list(by_id), log_events)
        outcome = Outcome(True, len(by_id), len(failed),
                          connections=sum(e["event"] == "connect" for e in log_events))
        # The server's answer per presentation, mapped to the item's canonical
        # label by option text: independent of the permutation in the trace.
        answered = {}
        for e in log_events:
            if e.get("status") == 200:
                item = tests[e["question"]]
                label = next(lab for lab, text in item.options if text == e["answer"])
                answered[e["sha"]] = (item.id, label)
        for row in rows:
            if row["item_id"] in failed:
                continue
            decisions = []
            for run in row["per_run"]:
                item_id, label = answered.get(run["prompt_sha256"], (None, INVALID))
                if item_id not in (None, row["item_id"]):
                    return _fail(outcome, f"{row['item_id']}: presentation belongs to {item_id}")
                if run["decision"] != label:
                    return _fail(outcome, f"{row['item_id']} run {run['run_index']}: "
                                          f"decision {run['decision']} but server answered {label}")
                decisions.append(label)
            if (row["decision"], row["tie_broken"]) != vote(decisions):
                return _fail(outcome, f"{row['item_id']}: vote {vote(decisions)} != "
                                      f"{(row['decision'], row['tie_broken'])}")
            if row["correct"] != (row["decision"] == by_id[row["item_id"]].gold):
                return _fail(outcome, f"{row['item_id']}: correct flag disagrees with gold")
        outcome.vote_split_share = vote_split_share(
            [row for row in rows if row["item_id"] not in failed])
        return outcome


WORKLOADS = {w.name: w for w in (LadderToy, KnnPool10k, EnsembleHttp)}
