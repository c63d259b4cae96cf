"""A slow reference for the chain-of-thought exemplar sets of `run`.

The reference is sequential and keeps nothing between commands: no
`CotCache`, exemplar manifest, index file or `PoolView`. It reads the
splits with `read_normalized`, embeds with `BuiltinProvider.fit`, ranks
every pool item by its own `np.dot` with ties broken by id, and asks a
fresh teacher about each distinct candidate at most once, as
`CotCache.verify` promises within one command. Random exemplars come from
`random_candidate_stream`. Run 0 of each item is assembled with
`assemble_prompt`.

`run --stage random_fewshot_cot` and `run --stage knn_fewshot_cot` must send
the reference's run-0 prompt for every item, whatever the command found
already built: a cold cache, a warm one, `gen-cot`'s manifest for all items
or for the first three, a pool re-ingested with edited items, at
concurrency 1 and 4. The corpora are seeded and
hold duplicate pool questions, so rankings tie, and a `flaky_gold` teacher
rejects a seeded subset of pool questions on every one of its attempts.
Besides MedQA's shape, MedMCQA's and PubMedQA's (yes/no/maybe words under
a context) run cold, warm and after `gen-cot`, and so does a MedQA pool with
CRLF line endings whose every question holds multi-byte characters and a
raw U+2028, so the manifest's byte offsets are not character counts.
"""

import hashlib
import json
import random
import shutil
from dataclasses import replace

import numpy as np
import pytest
import yaml

from conftest import make_item
from medharness.cli import main
from medharness.config import instruction_for, load_config
from medharness.corpus import (POOL_SPLIT, PUBMEDQA_WORDS, Dataset, Split, read_normalized,
                               write_normalized)
from medharness.modelgw import FlakyGoldPolicy, mock_model
from medharness.promptkit import FEWSHOT_SIZE, CotExemplar, assemble_prompt
from medharness.retrieval import BuiltinProvider
from medharness.runner import Stage, read_trace
from medharness.teacher import generate_cot, random_candidate_stream

WORDS = ("renal", "cardiac", "hepatic", "fever", "rash", "cough", "anemia", "sepsis",
         "stroke", "asthma", "insulin", "biopsy", "lesion", "murmur", "edema", "ulcer")
OPTION_TEXTS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")
N_TEST, N_POOL, N_TWINS, N_REJECTED = 8, 30, 6, 8
# Corpus shapes by name: the dataset, and whether the pool is the non-ASCII,
# CRLF-ended one.
SHAPES = {"medqa": (Dataset.MEDQA, False), "medmcqa": (Dataset.MEDMCQA, False),
          "pubmedqa": (Dataset.PUBMEDQA, False), "non_ascii_crlf": (Dataset.MEDQA, True)}


def question(rng: random.Random, n: int, non_ascii: bool = False) -> str:
    words = " ".join(rng.sample(WORDS, 4))
    if non_ascii:
        return f"Case {n} {words} fièvre\u2028Ödem 症状 which finding fits?"
    return f"Case {n} {words} which finding fits?"


def options(rng: random.Random, dataset: Dataset = Dataset.MEDQA) -> tuple:
    if dataset is Dataset.PUBMEDQA:
        return tuple(zip("ABC", PUBMEDQA_WORDS))
    return tuple(zip("ABCD", rng.sample(OPTION_TEXTS, 4)))


def shown(item) -> str:
    """The question as prompts show it, context first: what the mocks answer by."""
    return " ".join(filter(None, (item.context, item.question)))


def build_corpus(tmp_path, seed: int, concurrency: int, shape: str = "medqa"):
    """A seeded test split and pool of `shape` under `tmp_path`, their
    policies, and a config answering `concurrency` items at a time.

    Each of `N_TWINS` pool questions is asked again by a twin under another
    id with other options around the same gold text, so the two
    tie in every ranking while the teacher sees two prompts. The teacher
    rejects `N_REJECTED` pool questions, twins included, on each of its
    attempts.
    """
    dataset, non_ascii = SHAPES[shape]
    rng = random.Random(seed)
    labels = "ABC" if dataset is Dataset.PUBMEDQA else "ABCD"

    def item(i, split, text, **fields):
        if dataset is Dataset.PUBMEDQA:
            fields.setdefault("context", f"Abstract {i} of the {split.value} split.")
        return make_item(i, split=split, dataset=dataset, question=text, **fields)

    tests = [item(i, Split.TEST, question(rng, i, non_ascii), options=options(rng, dataset),
                  gold=rng.choice(labels)) for i in range(N_TEST)]
    pool_split = POOL_SPLIT[dataset]
    pool = [item(i, pool_split, question(rng, 100 + i, non_ascii),
                 options=options(rng, dataset), gold=rng.choice(labels)) for i in range(N_POOL)]
    for n, original in enumerate(rng.sample(pool, N_TWINS)):
        gold_text = dict(original.options)[original.gold]
        if dataset is Dataset.PUBMEDQA:
            texts = list(PUBMEDQA_WORDS)
        else:
            texts = [gold_text] + rng.sample([t for t in OPTION_TEXTS if t != gold_text], 3)
        rng.shuffle(texts)
        pool.append(item(N_POOL + n, pool_split, original.question,
                         options=tuple(zip(labels, texts)),
                         gold=labels[texts.index(gold_text)], context=original.context))
    rng.shuffle(pool)
    rejected = rng.sample(sorted({shown(it) for it in pool}), N_REJECTED)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "corpus_dir": "corpus", "output_dir": "out", "cache_dir": "cache", "seed": seed,
        "concurrency": concurrency,
        "target": {"url": "mock:target.json", "model": "target-x"},
        "teacher": {"url": "mock:teacher.json", "model": "teacher-x"},
    }), encoding="utf-8")
    return config, write_corpus(tmp_path, tests, pool, rejected, crlf=non_ascii)


def write_corpus(tmp_path, tests, pool, rejected, crlf: bool = False) -> dict:
    """Write the splits and both policies; return the teacher's policy. With
    `crlf`, the pool's lines end in CRLF."""
    dataset = tests[0].dataset
    corpus = tmp_path / "corpus" / dataset.value
    write_normalized(tests, corpus / "test.jsonl")
    pool_path = corpus / f"{POOL_SPLIT[dataset].value}.jsonl"
    write_normalized(pool, pool_path)
    if crlf:
        pool_path.write_bytes(pool_path.read_bytes().replace(b"\n", b"\r\n"))
    answers = {shown(it): it.gold_text for it in tests + pool}
    teacher = {"policy": "flaky_gold", "answers": answers, "fail_questions": sorted(rejected),
               "n_wrong": 3}
    (tmp_path / "teacher.json").write_text(json.dumps(teacher), encoding="utf-8")
    (tmp_path / "target.json").write_text(json.dumps({"policy": "gold", "answers": answers}),
                                          encoding="utf-8")
    return teacher


def reingest_edited(tmp_path, teacher_spec: dict) -> dict:
    """Rewrite every third pool item's question under its id; return the
    teacher's new policy. Cached rows of those ids no longer match."""
    corpus = tmp_path / "corpus" / "medqa"
    tests = read_normalized(corpus / "test.jsonl")
    pool = [replace(item, question=item.question.replace("which", "what"))
            if n % 3 == 0 else item
            for n, item in enumerate(read_normalized(corpus / "train.jsonl"))]
    return write_corpus(tmp_path, tests, pool, teacher_spec["fail_questions"])


def reference_prompts(config_path, teacher_spec: dict, stage: Stage,
                      dataset: Dataset = Dataset.MEDQA) -> dict[str, str]:
    """Each test item's run-0 `prompt_sha256` for `stage`, built the slow way."""
    config = load_config(config_path)
    corpus = config.corpus_dir / dataset.value
    tests = read_normalized(corpus / "test.jsonl")
    pool = read_normalized(corpus / f"{POOL_SPLIT[dataset].value}.jsonl")
    teacher = mock_model(FlakyGoldPolicy(teacher_spec["answers"],
                                         set(teacher_spec["fail_questions"]),
                                         teacher_spec["n_wrong"]))
    verdicts: dict[str, CotExemplar | None] = {}

    def first_verified(candidates) -> list[CotExemplar]:
        exemplars = []
        for candidate in candidates:
            if candidate.id not in verdicts:
                outcome = generate_cot(candidate, teacher)
                verdicts[candidate.id] = (CotExemplar(item=candidate, verified=True,
                                                      explanation=outcome.explanation)
                                          if outcome.accepted else None)
            if verdicts[candidate.id] is not None:
                exemplars.append(verdicts[candidate.id])
            if len(exemplars) == FEWSHOT_SIZE:
                return exemplars
        raise AssertionError("the pool ran out before enough exemplars verified")

    by_id = {item.id: item for item in pool}
    if stage is Stage.RANDOM_FEWSHOT_COT:
        fixed = first_verified(by_id[i] for i in random_candidate_stream(list(by_id),
                                                                          config.seed))
    else:
        provider = BuiltinProvider.fit([item.question for item in pool])
        vectors = {item.id: provider.embed(item.question) for item in pool}
    instruction = instruction_for(config, dataset)
    prompts = {}
    for item in tests:
        if stage is Stage.RANDOM_FEWSHOT_COT:
            exemplars = fixed
        else:
            query = provider.embed(item.question)
            ranked = sorted(pool, key=lambda p: (-float(np.dot(query, vectors[p.id])), p.id))
            exemplars = first_verified(ranked)
        text = assemble_prompt(stage, instruction, exemplars, item).text
        prompts[item.id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return prompts


def command(name: str, config, *args, dataset: Dataset = Dataset.MEDQA) -> list[str]:
    return [name, "--config", str(config), "--dataset", dataset.value, *args]


# What runs before the compared `run`, by scenario. `{kind}` is the stage's
# `gen-cot --kind`, `{other}` the other chain-of-thought stage.
SCENARIOS = {
    "cold": [],
    "warm": [("run", "--stage", "{stage}")],
    "warm_from_the_other_stage": [("run", "--stage", "{other}")],
    "after_gen_cot": [("gen-cot", "--kind", "{kind}")],
    "after_gen_cot_limit_3": [("gen-cot", "--kind", "knn", "--limit", "3")],
    "pool_reingested_after_gen_cot": [("gen-cot", "--kind", "{kind}"), ("reingest",),
                                      ("index",)],
}
STAGES = {Stage.RANDOM_FEWSHOT_COT: "random", Stage.KNN_FEWSHOT_COT: "knn"}


def check_run(tmp_path, stage: Stage, scenario: str, concurrency: int, shape: str = "medqa"):
    """Set up `scenario`, then `run` the stage and compare its run-0 prompts."""
    seed = 700 + 2 * list(SCENARIOS).index(scenario) + concurrency
    config, teacher_spec = build_corpus(tmp_path, seed, concurrency, shape)
    dataset = SHAPES[shape][0]
    [other] = set(STAGES) - {stage}
    for name, *args in SCENARIOS[scenario]:
        if name == "reingest":
            teacher_spec = reingest_edited(tmp_path, teacher_spec)
            continue
        args = [arg.format(stage=stage.value, other=other.value, kind=STAGES[stage])
                for arg in args]
        assert main(command(name, config, *args, dataset=dataset)) == 0
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
    assert main(command("run", config, "--stage", stage.value, dataset=dataset)) == 0
    trace = tmp_path / "out" / dataset.value / f"{stage.value}.trace.jsonl"
    sent = {row["item_id"]: row["per_run"][0]["prompt_sha256"] for row in read_trace(trace)}
    assert sent == reference_prompts(config, teacher_spec, stage, dataset)


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
@pytest.mark.parametrize("stage", list(STAGES), ids=lambda stage: stage.value)
def test_run_sends_the_reference_prompts(tmp_path, stage, scenario, concurrency):
    check_run(tmp_path, stage, scenario, concurrency)


@pytest.mark.parametrize("scenario", ["cold", "warm", "after_gen_cot"])
@pytest.mark.parametrize("shape", [shape for shape in SHAPES if shape != "medqa"])
@pytest.mark.parametrize("stage", list(STAGES), ids=lambda stage: stage.value)
def test_other_shapes_send_the_reference_prompts(tmp_path, stage, shape, scenario):
    check_run(tmp_path, stage, scenario, 1, shape)
