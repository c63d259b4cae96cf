"""Command-line flows against an in-process scripted endpoint."""

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from contextlib import closing
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import yaml

from conftest import make_item
from medharness import cli, corpus, promptkit, runner, teacher
from medharness.cli import main
from medharness.config import MAX_WAIT_S, build_endpoint as config_build_endpoint, load_config
from medharness.corpus import (CorpusFile, CorpusManifest, CorpusStore, Dataset, LoadResult,
                               Split, write_normalized)
from medharness.errors import ConfigError, DataError, EndpointError
from medharness.modelgw import HttpEndpoint, parse_prompt_tail
from medharness.parsing import INVALID
from medharness.retrieval import VectorIndex
from medharness.promptkit import FEWSHOT_SIZE, shuffle_options, teacher_prompt
from medharness.runner import LADDER, Stage, read_trace
from medharness.teacher import random_candidate_stream, teacher_fingerprint


def build_env(tmp_path, n_test=4, n_pool=8, config_extra=None):
    """A tiny corpus, a scripted-gold endpoint policy, and a config file."""
    test_items = [
        make_item(i, question=f"Exam question number {i}?", gold="B")
        for i in range(n_test)
    ]
    pool_items = [
        make_item(i, split=Split.TRAIN, question=f"Drill question about area {i}?",
                  gold="C")
        for i in range(n_pool)
    ]
    corpus = tmp_path / "corpus"
    write_normalized(test_items, corpus / "medqa" / "test.jsonl")
    write_normalized(pool_items, corpus / "medqa" / "train.jsonl")

    answers = {it.question: it.gold_text for it in test_items + pool_items}
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"policy": "gold", "answers": answers}),
                      encoding="utf-8")

    doc = {
        "corpus_dir": "corpus",
        "output_dir": "out",
        "cache_dir": "cache",
        "seed": 0,
        "target": {"url": f"mock:{policy}", "model": "target-x"},
        "teacher": {"url": f"mock:{policy}", "model": "teacher-x"},
    }
    doc.update(config_extra or {})
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return config, test_items, pool_items


def set_concurrency(config, concurrency):
    """Rewrite the config file `config` to answer `concurrency` items at a time."""
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    doc["concurrency"] = concurrency
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")


def trace_rows(path):
    """The rows of the trace at `path`, which must exist, as `runner.read_trace` reads them."""
    assert path.exists(), path
    return read_trace(path)


def sorted_rows(trace):
    """`trace_rows` ordered by item id."""
    return sorted(trace_rows(trace), key=lambda row: row["item_id"])


class SlowEndpoint:
    """`wrap_endpoint`'s wrapper for an endpoint whose calls each take 20 ms
    longer; `most` is the peak of calls in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = self.most = 0

    def __call__(self, endpoint):
        self.endpoint, self.model_id = endpoint, endpoint.model_id
        return self

    def complete(self, request):
        with self.lock:
            self.in_flight += 1
            self.most = max(self.most, self.in_flight)
        time.sleep(0.02)
        try:
            return self.endpoint.complete(request)
        finally:
            with self.lock:
                self.in_flight -= 1


def wrap_endpoint(monkeypatch, model_id, wrap):
    """Make commands open `wrap(endpoint)` wherever they open `model_id`'s endpoint."""
    build_endpoint = cli.build_endpoint

    def spy(spec, retry):
        endpoint = build_endpoint(spec, retry)
        return wrap(endpoint) if spec.model_id == model_id else endpoint

    monkeypatch.setattr(cli, "build_endpoint", spy)


@pytest.fixture
def loads(monkeypatch):
    """Names of the files `corpus.read_normalized` parses, in call order."""
    names = []
    read_normalized = corpus.read_normalized

    def spy(path):
        names.append((path.path if isinstance(path, CorpusFile) else Path(path)).name)
        return read_normalized(path)

    monkeypatch.setattr(corpus, "read_normalized", spy)
    monkeypatch.setattr(cli, "read_normalized", spy)
    return names


@pytest.fixture
def reads(monkeypatch):
    """Names of the files a `CorpusFile` reads, in call order."""
    names = []
    init = CorpusFile.__init__

    def spy(source, path):
        names.append(Path(path).name)
        init(source, path)

    monkeypatch.setattr(CorpusFile, "__init__", spy)
    return names


@pytest.fixture
def parsed(monkeypatch):
    """Byte offsets of the pool lines parsed, in call order."""
    offsets = []
    parse = CorpusFile.parse

    def spy(source, offset, line=None):
        if source.path.name == "train.jsonl":
            offsets.append(offset)
        return parse(source, offset, line)

    monkeypatch.setattr(CorpusFile, "parse", spy)
    return offsets


def line_offsets(path):
    """The byte offset at which each line of the file `path` starts."""
    offsets = [0]
    for line in path.read_bytes().split(b"\n")[:-1]:
        offsets.append(offsets[-1] + len(line) + 1)
    return offsets


def edit_pool_line(tmp_path, i, edit):
    """Replace the object on line index `i` of the pool file with `edit(object)`."""
    pool = tmp_path / "corpus" / "medqa" / "train.jsonl"
    lines = pool.read_text(encoding="utf-8").splitlines()
    lines[i] = json.dumps(edit(json.loads(lines[i])))
    pool.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_normalizes_raw_file(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        rows = [
            {"question": f"Raw question number {i}?",
             "options": {"A": "one", "B": "two", "C": "three", "D": "four"},
             "answer_idx": "A"}
            for i in range(3)
        ]
        rows.append({"question": "Broken row?", "options": {"A": "x"}})
        raw.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")

        code = main(["ingest", "--dataset", "medqa", "--split", "test",
                     "--source", str(raw), "--corpus-dir", str(tmp_path / "corpus")])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 items (1 rejected)" in out
        assert (tmp_path / "corpus" / "medqa" / "test.jsonl").exists()
        assert (tmp_path / "corpus" / "medqa" / "test.manifest.json").exists()


class TestRun:
    def test_zero_shot_end_to_end(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 0
        assert "medqa/zero_shot: 100.0%" in capsys.readouterr().out
        trace = tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl"
        rows = trace_rows(trace)
        assert [r["item_id"] for r in rows] == [it.id for it in test_items]
        report = json.loads(
            (tmp_path / "out" / "medqa" / "zero_shot.report.json").read_text())
        assert report["accuracy_percent"] == 100.0
        assert report["n_items"] == 4

    def test_complete_trace_reruns_as_noop(self, tmp_path):
        config, _, _ = build_env(tmp_path)
        args = ["run", "--config", str(config), "--dataset", "medqa",
                "--stage", "zero_shot"]
        assert main(args) == 0
        assert main(args) == 0

    def test_limit_restricts_items(self, tmp_path):
        config, _, _ = build_env(tmp_path)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot", "--limit", "2"])
        assert code == 0
        rows = trace_rows(tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl")
        assert len(rows) == 2

    def test_partial_trace_needs_resume(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path)
        main(["run", "--config", str(config), "--dataset", "medqa",
              "--stage", "zero_shot", "--limit", "2"])
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert "resume the run or remove the trace" in capsys.readouterr().err
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot", "--resume"])
        assert code == 0
        rows = trace_rows(tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl")
        assert [r["item_id"] for r in rows] == [it.id for it in test_items]

    def test_target_outage_exits_3_and_resume_asks_again(self, tmp_path, capsys):
        # The target has no answer for item 2: every try fails in transport.
        config, test_items, _ = build_env(tmp_path)
        policy = tmp_path / "policy.json"
        full = policy.read_text(encoding="utf-8")
        spec = json.loads(full)
        del spec["answers"][test_items[2].question]
        policy.write_text(json.dumps(spec), encoding="utf-8")
        args = ["run", "--config", str(config), "--dataset", "medqa", "--stage", "zero_shot"]
        assert main(args) == 3
        assert f"{test_items[2].id}: all 5 tries failed" in capsys.readouterr().err
        trace = tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl"
        assert [r["item_id"] for r in trace_rows(trace)] == [it.id for it in test_items[:2]]
        policy.write_text(full, encoding="utf-8")
        assert main(args + ["--resume"]) == 0
        rows = trace_rows(trace)
        assert [r["item_id"] for r in rows] == [it.id for it in test_items]
        assert all(r["correct"] and r["n_calls"] == 1 for r in rows)

    def test_dry_run_prints_prompt_without_calls(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        prompt, _, params = out.partition("\n---\n")
        assert prompt.endswith("### Answer:")
        assert "Exam question number 0?" in prompt
        assert "model: target-x" in params
        assert "temperature: 0.0" in params
        assert "max_tokens: 32" in params
        assert not (tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl").exists()

    def test_dry_run_cot_requires_warm_cache(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot", "--dry-run"])
        assert code == 1
        assert "gen-cot" in capsys.readouterr().err

        assert main(["gen-cot", "--config", str(config), "--dataset", "medqa",
                     "--limit", "1"]) == 0
        capsys.readouterr()
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot", "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.partition("\n---\n")[0].endswith("### Explanation:")
        assert "max_tokens: 256" in out


class TestAblate:
    def test_full_ladder(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["ablate", "--config", str(config), "--dataset", "medqa"])
        assert code == 0
        out = capsys.readouterr().out
        assert "medqa / test" in out
        for stage in ("zero_shot", "random_fewshot", "random_fewshot_cot",
                      "knn_fewshot_cot", "ensemble"):
            assert stage in out
        table = json.loads(
            (tmp_path / "out" / "medqa" / "ablation.json").read_text(encoding="utf-8"))
        assert [r["accuracy_percent"] for r in table["rows"]] == [100.0] * 5
        assert [r["delta"] for r in table["rows"]] == [None, 0.0, 0.0, 0.0, 0.0]
        assert (tmp_path / "out" / "medqa" / "ablation.txt").exists()
        ensemble_rows = trace_rows(
            tmp_path / "out" / "medqa" / "ensemble.trace.jsonl")
        # Every run agrees, so each 5-run vote is decided after run 2.
        assert all([run["run_index"] for run in r["per_run"]] == [0, 1, 2]
                   and r["n_calls"] == 3 for r in ensemble_rows)

    def test_report_rebuilds_from_traces(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        main(["ablate", "--config", str(config), "--dataset", "medqa"])
        for stage in ("zero_shot", "ensemble"):
            (tmp_path / "out" / "medqa" / f"{stage}.report.json").unlink()
        (tmp_path / "out" / "medqa" / "ablation.json").unlink()
        capsys.readouterr()
        code = main(["report", "--config", str(config), "--dataset", "medqa"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ensemble: 100.0%" in out
        assert (tmp_path / "out" / "medqa" / "ablation.json").exists()
        assert (tmp_path / "out" / "medqa" / "zero_shot.report.json").exists()

    def test_report_limit_counts_only_the_scored_rows(self, tmp_path):
        config, test_items, _ = build_env(tmp_path)
        subjects = ["anatomy", "anatomy", "virology", "virology"]
        write_normalized([replace(item, dataset=Dataset.MMLU_MED, subject=subject)
                          for item, subject in zip(test_items, subjects)],
                         tmp_path / "corpus" / "mmlu_med" / "test.jsonl")
        for dataset in ("medqa", "mmlu_med"):
            args = ["--config", str(config), "--dataset", dataset]
            assert main(["run", *args, "--stage", "zero_shot"]) == 0
            assert main(["report", *args, "--limit", "2"]) == 0
            report = json.loads((tmp_path / "out" / dataset / "zero_shot.report.json")
                                .read_text(encoding="utf-8"))
            assert (report["n_items"], report["n_calls"]) == (2, 2)
        breakdown = json.loads((tmp_path / "out" / "mmlu_med" / "subjects.json")
                               .read_text(encoding="utf-8"))
        assert breakdown["overall"]["n_items"] == 2
        assert list(breakdown["subjects"]) == ["anatomy"]

    def test_report_reads_each_trace_once(self, tmp_path, monkeypatch):
        """The subject breakdown takes the rows of the last stage with a
        trace from the pass over the ladder, not from a second read."""
        config, test_items, pool_items = build_env(tmp_path)
        corpus = tmp_path / "corpus" / "mmlu_med"
        write_normalized([replace(item, dataset=Dataset.MMLU_MED, subject="anatomy")
                          for item in test_items], corpus / "test.jsonl")
        write_normalized([replace(item, dataset=Dataset.MMLU_MED, split=Split.DEV,
                                  subject="anatomy")
                          for item in pool_items], corpus / "dev.jsonl")
        args = ["--config", str(config), "--dataset", "mmlu_med"]
        for stage in ("zero_shot", "random_fewshot"):
            assert main(["run", *args, "--stage", stage]) == 0
        reads = []
        read = runner.read_trace
        monkeypatch.setattr(runner, "read_trace",
                            lambda path: reads.append(Path(path).name) or read(path))
        assert main(["report", *args]) == 0
        assert sorted(reads) == sorted(f"{stage.value}.trace.jsonl" for stage in LADDER)
        breakdown = json.loads((tmp_path / "out" / "mmlu_med" / "subjects.json")
                               .read_text(encoding="utf-8"))
        assert breakdown["overall"]["n_items"] == len(test_items)


class TestWholeFileCommits:
    def test_every_output_but_the_appended_ones_is_committed_by_a_rename(self, tmp_path,
                                                                        monkeypatch):
        """Each file a command creates or changes is an `os.replace` destination
        of that command, so a reader sees the old file or the new one, never
        part of either. Traces and the CoT cache are appended to instead."""
        config, test_items, _ = build_env(tmp_path, n_pool=30)
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps({"question": item.question,
                                           "options": dict(item.options),
                                           "answer_idx": item.gold}) + "\n"
                               for item in test_items), encoding="utf-8")
        subjects = ["anatomy", "anatomy", "virology", "virology"]
        write_normalized([replace(item, dataset=Dataset.MMLU_MED, subject=subject)
                          for item, subject in zip(test_items, subjects)],
                         tmp_path / "corpus" / "mmlu_med" / "test.jsonl")
        destinations = set()
        os_replace = os.replace

        def spy(src, dst):
            destinations.add(Path(dst))
            os_replace(src, dst)

        def files():
            return {path: (path.stat().st_ino, path.stat().st_mtime_ns, path.stat().st_size)
                    for path in tmp_path.rglob("*") if path.is_file()}

        monkeypatch.setattr(os, "replace", spy)
        medqa = ["--config", str(config), "--dataset", "medqa"]
        mmlu = ["--config", str(config), "--dataset", "mmlu_med"]
        committed = set()
        for argv in (["ingest", "--dataset", "medqa", "--split", "test", "--source", str(raw),
                      "--corpus-dir", str(tmp_path / "ingested")],
                     ["index", *medqa], ["gen-cot", *medqa], ["ablate", *medqa],
                     ["report", *medqa], ["run", *mmlu, "--stage", "zero_shot"],
                     ["report", *mmlu]):
            before = files()
            destinations.clear()
            assert main(argv) == 0
            produced = {path for path, stat in files().items() if before.get(path) != stat
                        and not path.name.endswith(".trace.jsonl")
                        and path.parent != tmp_path / "cache" / "cot"}
            assert produced - destinations == set(), argv[0]
            committed |= {path.relative_to(tmp_path).as_posix() for path in produced}
        assert {"ingested/medqa/test.jsonl", "ingested/medqa/test.manifest.json",
                "cache/index/medqa.jsonl", "cache/exemplars/medqa.jsonl",
                "out/medqa/zero_shot.report.json", "out/medqa/ablation.json",
                "out/medqa/ablation.txt", "out/mmlu_med/subjects.json"} <= committed


class TestSplitManifest:
    """A normalized split whose bytes are not the ones its ingest manifest
    records is refused before it is used."""

    @staticmethod
    def ingested(tmp_path, split, items, keep):
        """Save `items` as `split` with its manifest, then keep only the
        first `keep` lines of the split."""
        path = CorpusStore(tmp_path / "corpus").save(LoadResult(items, CorpusManifest(
            Dataset.MEDQA, split, len(items), "raw.jsonl", "0" * 64)))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:keep]), encoding="utf-8")
        return path

    def test_truncated_pool_is_refused(self, tmp_path, capsys):
        config, _, pool_items = build_env(tmp_path, n_test=4, n_pool=30)
        self.ingested(tmp_path, Split.TRAIN, pool_items, keep=30)
        index = ["index", "--config", str(config), "--dataset", "medqa"]
        assert main(index) == 0
        path = self.ingested(tmp_path, Split.TRAIN, pool_items, keep=20)
        capsys.readouterr()
        assert main(index) == 2
        err = capsys.readouterr().err
        assert f"{path} is not the file" in err and "train.manifest.json records" in err
        assert "re-ingest" in err
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"]) == 2
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    def test_truncated_test_split_is_refused(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path)
        path = self.ingested(tmp_path, Split.TEST, test_items, keep=3)
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"]) == 2
        assert f"{path} is not the file" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    def test_item_edited_in_place_is_refused_until_re_ingested(self, tmp_path, capsys):
        config, _, pool_items = build_env(tmp_path, n_test=4, n_pool=30)
        raw = tmp_path / "raw_train.jsonl"
        raw.write_text("".join(json.dumps({"question": item.question,
                                           "options": dict(item.options),
                                           "answer_idx": item.gold}) + "\n"
                               for item in pool_items), encoding="utf-8")
        ingest = ["ingest", "--dataset", "medqa", "--split", "train", "--source", str(raw),
                  "--corpus-dir", str(tmp_path / "corpus")]
        index = ["index", "--config", str(config), "--dataset", "medqa"]
        run = ["run", "--config", str(config), "--dataset", "medqa", "--stage", "knn_fewshot_cot"]
        assert main(ingest) == 0
        assert main(index) == 0
        # Same item count, one gold letter changed.
        edit_pool_line(tmp_path, 0, lambda obj: {**obj, "gold": "A"})
        capsys.readouterr()
        for args in (index, run):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert "train.manifest.json records" in err and "re-ingest" in err
        assert list(tmp_path.rglob("*.trace.jsonl")) == []
        assert main(ingest) == 0
        assert main(index) == 0
        assert main(run) == 0

    def test_manifest_without_the_digest_is_refused(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path)
        self.ingested(tmp_path, Split.TEST, test_items, keep=len(test_items))
        manifest = tmp_path / "corpus" / "medqa" / "test.manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        del doc["normalized_sha256"]
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"]) == 2
        assert "(normalized_sha256 not recorded); re-ingest the split" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.trace.jsonl")) == []


class TestIndexAndGenCot:
    def test_index_command(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["index", "--config", str(config), "--dataset", "medqa"])
        assert code == 0
        assert "indexed 8 pool items" in capsys.readouterr().out
        assert (tmp_path / "cache" / "index" / "medqa.jsonl").exists()
        assert main(["index", "--config", str(config), "--dataset", "medqa"]) == 0

    def test_gen_cot_knn_then_run_uses_cache(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["gen-cot", "--config", str(config), "--dataset", "medqa"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exemplars ready for 4 items" in out
        [cache_file] = (tmp_path / "cache" / "cot").iterdir()
        assert cache_file.name == f"{teacher_fingerprint('teacher-x')}.jsonl"
        assert cache_file.read_text(encoding="utf-8").count("\n") >= 5
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        assert len(manifest.read_text(encoding="utf-8").splitlines()) == 1 + 4
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"])
        assert code == 0

    def test_gen_cot_random(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["gen-cot", "--config", str(config), "--dataset", "medqa",
                     "--kind", "random"])
        assert code == 0
        assert "5 random exemplars verified" in capsys.readouterr().out

    def test_gen_cot_random_needs_the_test_split(self, tmp_path, capsys):
        # Without the test split the pool's overlap with it cannot be checked.
        config, _, _ = build_env(tmp_path)
        (tmp_path / "corpus" / "medqa" / "test.jsonl").unlink()
        code = main(["gen-cot", "--config", str(config), "--dataset", "medqa",
                     "--kind", "random"])
        assert code == 2
        assert "test.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "cache" / "cot").exists()


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml"),
                     "--dataset", "medqa", "--stage", "zero_shot"])
        assert code == 1
        assert "config file missing" in capsys.readouterr().err

    def test_unknown_dataset_is_usage_error(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        code = main(["run", "--config", str(config), "--dataset", "trivia",
                     "--stage", "zero_shot"])
        assert code == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_missing_required_option_is_usage_error(self, capsys):
        assert main(["run"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_missing_pool_is_data_error(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        (tmp_path / "corpus" / "medqa" / "train.jsonl").unlink()
        code = main(["index", "--config", str(config), "--dataset", "medqa"])
        assert code == 2
        assert "pool missing" in capsys.readouterr().err

    def test_dead_embedding_endpoint_is_endpoint_error(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path, config_extra={
            "embedding": {"url": "http://127.0.0.1:9", "model": "embedder"},
            "retry": {"max_retries": 0, "backoff_base": 0.0, "backoff_cap": 0.0},
        })
        code = main(["index", "--config", str(config), "--dataset", "medqa"])
        assert code == 3
        assert "gave up" in capsys.readouterr().err

    def test_mock_embedding_is_config_error(self, tmp_path, capsys):
        # Mock endpoints cannot embed; the builtin embedder is the offline one.
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30, config_extra={
            "embedding": {"url": f"mock:{tmp_path / 'policy.json'}", "model": "embedder"}})
        with pytest.raises(ConfigError, match="leave the block out for the builtin embedder"):
            load_config(config)
        assert main(["index", "--config", str(config), "--dataset", "medqa"]) == 1
        err = capsys.readouterr().err
        assert "embedding: url must be an http(s) URL" in err and "Traceback" not in err
        assert not (tmp_path / "cache" / "index").exists()

    @pytest.mark.parametrize("key", ["n_fewshot", "k_neighbors"])
    def test_exemplar_count_keys_are_unknown(self, tmp_path, capsys, key):
        # The exemplar and neighbour count is `promptkit.FEWSHOT_SIZE`, not a setting.
        config, _, _ = build_env(tmp_path, config_extra={key: 5})
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert f"unknown keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"ensemble": {"temperature": float("nan")}}, "temperature"),
        ({"ensemble": {"temperature": float("inf")}}, "temperature"),
        ({"retry": {"backoff_base": float("nan")}}, "backoff_base"),
        ({"retry": {"backoff_cap": float("inf")}}, "backoff_cap"),
        ({"target": {"url": "mock:unused.json", "model": "m", "timeout": float("nan")}},
         "timeout"),
        ({"teacher": {"url": "mock:unused.json", "model": "m", "timeout": -float("inf")}},
         "timeout"),
        # Finite but out of range.
        ({"ensemble": {"temperature": -0.1}}, "temperature"),
        ({"retry": {"backoff_base": -1.0}}, "backoff_base"),
        ({"retry": {"backoff_cap": -0.5}}, "backoff_cap"),
        ({"target": {"url": "mock:unused.json", "model": "m", "timeout": 0}}, "timeout"),
        ({"teacher": {"url": "mock:unused.json", "model": "m", "timeout": -3}}, "timeout"),
        # Past a day: `time.sleep` on the first retry, or the socket's
        # `settimeout` on the first call, raised a bare OverflowError.
        ({"retry": {"backoff_cap": 1e300}}, "backoff_cap"),
        ({"retry": {"backoff_cap": MAX_WAIT_S + 1}}, "backoff_cap"),
        ({"target": {"url": "http://127.0.0.1:9", "model": "m", "timeout": 1e300}}, "timeout"),
    ])
    def test_non_finite_config_float_is_config_error(self, tmp_path, capsys, extra, key):
        config, _, _ = build_env(tmp_path, config_extra=extra)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert f"{key} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["target", "teacher", "embedding"])
    @pytest.mark.parametrize("value", [123, ["KEY"], True])
    def test_non_string_api_key_env_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                    block, value):
        config, _, _ = build_env(tmp_path, config_extra={
            block: {"url": "http://127.0.0.1:9", "model": "m", "api_key_env": value}})
        monkeypatch.setattr(cli, "build_endpoint", lambda *args: pytest.fail("endpoint opened"))
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert f"{block}: api_key_env must name an environment variable, got {value!r}" \
            in capsys.readouterr().err

    def test_waits_of_a_day_load(self, tmp_path):
        config, _, _ = build_env(tmp_path, config_extra={
            "retry": {"backoff_cap": 86400},
            "target": {"url": "mock:unused.json", "model": "m", "timeout": 86400}})
        loaded = load_config(config)
        assert loaded.retry.backoff_cap == loaded.target.timeout == MAX_WAIT_S == 86400

    @pytest.mark.parametrize("command", [["run", "--stage", "ensemble"], ["ablate"]])
    def test_seed_option_is_gone(self, tmp_path, capsys, monkeypatch, command):
        # The config file is the one place that sets the seed.
        config, _, _ = build_env(tmp_path)
        monkeypatch.setattr(cli, "build_endpoint", lambda *args: pytest.fail("endpoint opened"))
        code = main([command[0], "--config", str(config), "--dataset", "medqa", *command[1:],
                     "--seed", "7"])
        assert code == 1
        assert "No such option '--seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key, minimum", [
        ({"max_validity_tries": 0}, "max_validity_tries", 1),
        ({"seed": "abc"}, "seed", None),
        ({"concurrency": 0}, "concurrency", 1),
        ({"ensemble": {"runs": 0}}, "runs", 1),
        ({"retry": {"max_retries": -1}}, "max_retries", 0),
        ({"retry": {"max_retries": 1.5}}, "max_retries", 0),
        ({"seed": 1.5}, "seed", None),
        ({"seed": True}, "seed", None),
    ])
    def test_config_integer_out_of_range_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                         extra, key, minimum):
        config, _, _ = build_env(tmp_path, config_extra=extra)
        monkeypatch.setattr(cli, "build_endpoint", lambda *args: pytest.fail("endpoint opened"))
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        bound = "" if minimum is None else f" >= {minimum}"
        assert f"{key} must be an integer{bound}, got" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run", "--stage", "ensemble"], ["ablate"]])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_concurrency_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  command, value):
        # The config file is the one place that sets the concurrency: the command line
        # refuses a --concurrency option of any value as unknown.
        config, _, _ = build_env(tmp_path)
        monkeypatch.setattr(cli, "build_endpoint", lambda *args: pytest.fail("endpoint opened"))
        code = main([command[0], "--config", str(config), "--dataset", "medqa", *command[1:],
                     "--concurrency", value])
        assert code == 1
        assert "No such option '--concurrency'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, section", [
        ({"ensemble": 5}, "ensemble"),
        ({"retry": 3}, "retry"),
        ({"ensemble": ["runs"]}, "ensemble"),
    ])
    def test_config_section_that_is_not_a_mapping_is_config_error(self, tmp_path, capsys,
                                                                 monkeypatch, extra, section):
        config, _, _ = build_env(tmp_path, config_extra=extra)
        monkeypatch.setattr(cli, "build_endpoint", lambda *args: pytest.fail("endpoint opened"))
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert f"{section}: expected a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ("not json", "is not readable JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"policy": "gold"}', "needs key 'answers'"),
    ], ids=["not-json", "not-an-object", "missing-key"])
    def test_malformed_mock_policy_is_config_error(self, tmp_path, capsys, body, message):
        config, _, _ = build_env(tmp_path)
        policy = tmp_path / "policy.json"
        policy.write_text(body, encoding="utf-8")
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"mock policy file {policy}" in err or f"in {policy}" in err
        assert message in err
        trace = tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl"
        assert not trace.exists() or trace.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("spec, key", [
        ({"policy": "gold", "answers": [1, 2]}, "answers"),
        ({"policy": "gold", "answers": "abc"}, "answers"),
        ({"policy": "gold", "answers": {"What?": 5}}, "answers"),
        ({"policy": "gold", "answers": {}, "explanations": ["Because."]}, "explanations"),
        ({"policy": "flaky_gold", "answers": {}, "n_wrong": "3"}, "n_wrong"),
        ({"policy": "flaky_gold", "answers": {}, "n_wrong": -1}, "n_wrong"),
        ({"policy": "flaky_gold", "answers": {}, "n_wrong": True}, "n_wrong"),
        ({"policy": "flaky_gold", "answers": {}, "fail_questions": "What?"}, "fail_questions"),
        ({"policy": "stage_table", "table": {}, "random_exemplar_questions": 5},
         "random_exemplar_questions"),
        ({"policy": "stage_table", "random_exemplar_questions": [],
          "table": {"What?": {"gold": 1, "wrong": "b", "stages": []}}}, "table"),
        ({"policy": "stage_table", "random_exemplar_questions": [],
          "table": {"What?": {"gold": "a", "wrong": "b", "stages": "zero_shot"}}}, "table"),
        ({"policy": "stage_table", "random_exemplar_questions": [],
          "table": {"What?": {"gold": "a", "wrong": "b", "stages": ["knn"]}}}, "table"),
        ({"policy": "stage_table", "random_exemplar_questions": [],
          "table": {"What?": ["a", "b"]}}, "table"),
    ], ids=["answers-list", "answers-string", "answer-not-string", "explanations-list",
            "n_wrong-string", "n_wrong-negative", "n_wrong-bool", "fail_questions-string",
            "random-questions-int", "table-gold-int", "table-stages-string",
            "table-unknown-stage", "table-row-list"])
    def test_mock_policy_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys,
                                                                  spec, key):
        config, _, _ = build_env(tmp_path)
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"in {policy}: {key!r} must be" in err
        trace = tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl"
        assert not trace.exists() or trace.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("seed", [-7, 2**40])
    def test_any_integer_seed_is_accepted(self, tmp_path, capsys, seed):
        config, _, _ = build_env(tmp_path, config_extra={"seed": seed})
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot", "--dry-run"]) == 0
        assert capsys.readouterr().out.endswith(f"  seed: {seed}\n")

    def test_short_trace_is_incomplete_run(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path)
        trace = tmp_path / "out" / "medqa" / "zero_shot.trace.jsonl"
        trace.parent.mkdir(parents=True)
        row = {"schema": 1, "item_id": test_items[0].id, "gold": "B",
               "stage": "zero_shot", "decision": "B", "correct": True,
               "tie_broken": False, "n_calls": 1, "per_run": []}
        trace.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = main(["report", "--config", str(config), "--dataset", "medqa"])
        assert code == 4
        assert "unscored" in capsys.readouterr().err


class TestRankOnce:
    """Each command reads each corpus split once and ranks each test item once."""

    @pytest.fixture
    def ranked(self, monkeypatch):
        ids = []
        rank_block = VectorIndex._rank_block

        def spy(index, query_vectors, exclude_ids, limit):
            ids.extend(exclude_ids)
            return rank_block(index, query_vectors, exclude_ids, limit)

        monkeypatch.setattr(VectorIndex, "_rank_block", spy)
        return ids

    def test_ablate_ranks_each_item_once(self, tmp_path, ranked, reads, loads):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(["ablate", "--config", str(config), "--dataset", "medqa"]) == 0
        assert sorted(ranked) == sorted(item.id for item in test_items)
        assert sorted(reads) == ["test.jsonl", "train.jsonl"]
        assert loads == ["test.jsonl"]

    def test_run_reads_each_split_once(self, tmp_path, reads, loads):
        config, _, _ = build_env(tmp_path)
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"]) == 0
        assert sorted(reads) == ["test.jsonl", "train.jsonl"]
        assert loads == ["test.jsonl"]

    def test_resume_ranks_only_unfinished_items(self, tmp_path, ranked):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        args = ["run", "--config", str(config), "--dataset", "medqa",
                "--stage", "knn_fewshot_cot"]
        assert main(args + ["--limit", "5"]) == 0
        assert ranked == [item.id for item in test_items[:5]]
        ranked.clear()
        assert main(args + ["--resume"]) == 0
        assert ranked == [item.id for item in test_items[5:]]

    def test_concurrent_stage_ranks_each_item_once(self, tmp_path, ranked):
        config, test_items, _ = build_env(tmp_path, n_test=40, n_pool=30,
                                          config_extra={"concurrency": 8})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(["run", "--config", str(config), "--dataset", "medqa",
                         "--stage", "knn_fewshot_cot"])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert sorted(ranked) == sorted(item.id for item in test_items)

    def test_error_in_a_later_block_keeps_the_rows_before_it(self, tmp_path, monkeypatch):
        config, test_items, _ = build_env(tmp_path, n_test=40, n_pool=30)
        rank_block = VectorIndex._rank_block
        blocks = []

        def failing(index, query_vectors, exclude_ids, limit):
            if test_items[32].id in exclude_ids:
                raise DataError("embedding endpoint gone")
            blocks.append(len(exclude_ids))
            return rank_block(index, query_vectors, exclude_ids, limit)

        monkeypatch.setattr(VectorIndex, "_rank_block", failing)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"])
        assert code == 2
        assert blocks == [16, 16]
        rows = trace_rows(tmp_path / "out" / "medqa" / "knn_fewshot_cot.trace.jsonl")
        assert [row["item_id"] for row in rows] == [item.id for item in test_items[:32]]

    def test_teacher_calls_overlap_across_items(self, tmp_path, monkeypatch):
        config, _, _ = build_env(tmp_path, n_test=8, n_pool=30, config_extra={"concurrency": 4})
        teacher = SlowEndpoint()
        wrap_endpoint(monkeypatch, "teacher-x", teacher)
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"]) == 0
        assert teacher.most > 1

    def test_gen_cot_then_run_gives_the_prompts_of_run_alone(self, tmp_path):
        def knn_prompts(root, warm):
            config, _, _ = build_env(root, n_test=20, n_pool=30)
            if warm:
                assert main(["gen-cot", "--config", str(config), "--dataset", "medqa"]) == 0
            assert main(["run", "--config", str(config), "--dataset", "medqa",
                         "--stage", "knn_fewshot_cot"]) == 0
            rows = trace_rows(root / "out" / "medqa" / "knn_fewshot_cot.trace.jsonl")
            return [run["prompt_sha256"] for row in rows for run in row["per_run"]]

        alone = knn_prompts(tmp_path / "alone", warm=False)
        assert len(set(alone)) == 20
        assert knn_prompts(tmp_path / "warm", warm=True) == alone


class TestExemplarManifest:
    """After `gen-cot`, a kNN stage takes each item the manifest lists from the
    manifest and the cache: no ranking and no teacher call, the same prompts."""

    @staticmethod
    def command(name, config, *extra):
        return [name, "--config", str(config), "--dataset", "medqa", *extra]

    @pytest.fixture
    def spies(self, monkeypatch):
        """Ranking calls, teacher calls and CoT cache files read, by name."""
        seen = {"ranked": [], "teacher": [], "cache_reads": []}
        rank_all, nearest_many = VectorIndex.rank_all, VectorIndex.nearest_many
        read_log = corpus.AppendLog.__init__

        def rank_spy(index, *args, **kwargs):
            seen["ranked"].append("rank_all")
            return rank_all(index, *args, **kwargs)

        def nearest_spy(index, queries, k):
            seen["ranked"].extend(query.id for query in queries)
            return nearest_many(index, queries, k)

        class CountingTeacher:
            def __init__(self, endpoint):
                self.endpoint = endpoint
                self.model_id = endpoint.model_id

            def complete(self, request):
                seen["teacher"].append(request.prompt)
                return self.endpoint.complete(request)

        def read_spy(appends, path, check, corrupt):
            if Path(path).parent.name == "cot":
                seen["cache_reads"].append(Path(path).name)
            read_log(appends, path, check, corrupt)

        monkeypatch.setattr(VectorIndex, "rank_all", rank_spy)
        monkeypatch.setattr(VectorIndex, "nearest_many", nearest_spy)
        wrap_endpoint(monkeypatch, "teacher-x", CountingTeacher)
        monkeypatch.setattr(corpus.AppendLog, "__init__", read_spy)
        return seen

    def prompts(self, root, stage="knn_fewshot_cot"):
        rows = trace_rows(root / "out" / "medqa" / f"{stage}.trace.jsonl")
        return {row["item_id"]: [run["prompt_sha256"] for run in row["per_run"]] for row in rows}

    def run_alone(self, root, stage="knn_fewshot_cot"):
        config, _, _ = build_env(root, n_test=20, n_pool=30)
        assert main(self.command("run", config, "--stage", stage)) == 0
        return self.prompts(root, stage)

    @pytest.mark.parametrize("stage", ["knn_fewshot_cot", "ensemble"])
    def test_run_after_gen_cot_ranks_nothing_and_asks_no_teacher(self, tmp_path, spies, stage):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        assert len(spies["ranked"]) == 20 and spies["teacher"]
        for seen in spies.values():
            seen.clear()
        assert main(self.command("run", config, "--stage", stage)) == 0
        assert spies["ranked"] == []
        assert spies["teacher"] == []
        assert spies["cache_reads"] == [f"{teacher_fingerprint('teacher-x')}.jsonl"]
        assert self.prompts(tmp_path, stage) == self.run_alone(tmp_path / "alone", stage)

    def test_dry_run_reads_the_manifest(self, tmp_path, spies, capsys):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config, "--limit", "1")) == 0
        spies["ranked"].clear()
        capsys.readouterr()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot",
                                 "--dry-run")) == 0
        assert spies["ranked"] == []
        assert capsys.readouterr().out.partition("\n---\n")[0].endswith("### Explanation:")

    def test_partial_manifest_ranks_only_unlisted_items(self, tmp_path, spies):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config, "--limit", "7")) == 0
        spies["ranked"].clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert spies["ranked"] == [item.id for item in test_items[7:]]
        assert self.prompts(tmp_path) == self.run_alone(tmp_path / "alone")

    def test_listed_item_with_an_uncached_exemplar_is_ranked_again(self, tmp_path, spies,
                                                                   index_loads):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
        dropped = rows[4]["exemplars"][2]
        first_user = next(row["item_id"] for row in rows[1:] if dropped in row["exemplars"])
        cache_file = tmp_path / "cache" / "cot" / f"{teacher_fingerprint('teacher-x')}.jsonl"
        kept = [line for line in cache_file.read_text(encoding="utf-8").splitlines()
                if json.loads(line)["id"] != dropped]
        cache_file.write_text("\n".join(kept) + "\n", encoding="utf-8")
        spies["ranked"].clear()
        spies["teacher"].clear()
        index_loads.clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        # The item is not covered, so the index is loaded, once, up front.
        assert index_loads == ["medqa.jsonl"]
        # The first item needing the dropped exemplar ranks and verifies it
        # again; that puts it back in the cache for the items after it.
        assert spies["ranked"] == [first_user]
        assert len(spies["teacher"]) == 1
        assert self.prompts(tmp_path) == self.run_alone(tmp_path / "alone")

    # `k_neighbors` stands for a manifest written when the header still carried it.
    @pytest.mark.parametrize("field, value", [
        ("pool_sha256", "0" * 64), ("teacher", "0" * 16), ("k_neighbors", 7),
        ("test_sha256", "0" * 64), ("provider_id", "remote:other"), ("schema", 1),
    ])
    def test_stale_manifest_is_ignored_with_one_warning(self, tmp_path, spies, caplog,
                                                        field, value):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        header, *rows = [json.loads(line)
                         for line in manifest.read_text(encoding="utf-8").splitlines()]
        header[field] = value
        # Reversed exemplars would change every prompt if the manifest were used.
        rows = [{**row, "exemplars": row["exemplars"][::-1]} for row in rows]
        manifest.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *rows]),
                            encoding="utf-8")
        spies["ranked"].clear()
        with caplog.at_level("WARNING"):
            assert main(self.command("ablate", config)) == 0
        assert caplog.text.count("ignoring exemplar manifest") == 1
        assert field in caplog.text
        assert len(spies["ranked"]) == 20
        assert self.prompts(tmp_path) == self.run_alone(tmp_path / "alone")

    def test_gen_cot_replaces_a_stale_manifest_without_a_warning(self, tmp_path, caplog):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        fresh = manifest.read_bytes()
        header, *rows = [json.loads(line) for line in fresh.decode("utf-8").splitlines()]
        rows = [{**row, "exemplars": row["exemplars"][::-1]} for row in rows]
        manifest.write_text("".join(json.dumps(doc) + "\n"
                                    for doc in [{**header, "k_neighbors": 7}, *rows]),
                            encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert main(self.command("gen-cot", config)) == 0
        assert "exemplar manifest" not in caplog.text
        assert manifest.read_bytes() == fresh

    def test_corrupt_manifest_is_ignored(self, tmp_path, spies, caplog):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        header, first, *rows = manifest.read_text(encoding="utf-8").splitlines()
        bad = json.dumps({**json.loads(first), "exemplars": ["train-99999"] * 5})
        manifest.write_text("\n".join([header, bad, *rows]) + "\n", encoding="utf-8")
        spies["ranked"].clear()
        with caplog.at_level("WARNING"):
            assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert "ignoring corrupt exemplar manifest" in caplog.text
        assert len(spies["ranked"]) == 20

    def test_second_gen_cot_takes_listed_items_from_the_manifest(self, tmp_path, spies):
        config, test_items, pool_items = build_env(tmp_path, n_test=4, n_pool=30)
        assert main(self.command("index", config)) == 0
        index = VectorIndex.load(tmp_path / "cache" / "index" / "medqa.jsonl")
        top = [set(ns.ids) for ns in index.nearest_many(test_items, 6)]
        # A neighbour of the first two items that the other two never reach.
        rejected = next(item for item in pool_items
                        if item.id in top[0] | top[1] and item.id not in top[2] | top[3])
        policy = tmp_path / "teacher_policy.json"
        policy.write_text(json.dumps({
            "policy": "flaky_gold", "answers": {it.question: it.gold_text for it in pool_items},
            "fail_questions": [rejected.question], "n_wrong": 99,
        }), encoding="utf-8")
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"]["url"] = f"mock:{policy}"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(self.command("gen-cot", config, "--limit", "2")) == 0
        assert len(spies["teacher"]) > 0
        spies["teacher"].clear()
        spies["ranked"].clear()
        assert main(self.command("gen-cot", config)) == 0
        assert spies["ranked"] == [item.id for item in test_items[2:]]
        assert teacher_prompt(rejected) not in spies["teacher"]
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        warm = manifest.read_bytes()
        (tmp_path / "cache" / "cot").rename(tmp_path / "cache" / "cot-old")
        assert main(self.command("gen-cot", config)) == 0
        assert manifest.read_bytes() == warm

    def test_run_after_random_gen_cot_asks_no_teacher(self, tmp_path, spies):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config, "--kind", "random")) == 0
        assert len(spies["teacher"]) == 5
        spies["teacher"].clear()
        stage = "random_fewshot_cot"
        assert main(self.command("run", config, "--stage", stage)) == 0
        assert spies["teacher"] == []
        assert self.prompts(tmp_path, stage) == self.run_alone(tmp_path / "alone", stage)

    def test_teacher_outage_fails_gen_cot_without_a_manifest(self, tmp_path, capsys):
        config, test_items, pool_items = build_env(tmp_path, n_test=6, n_pool=12)
        # The teacher answers only some pool questions; the rest raise, as a
        # dead endpoint would.
        policy = tmp_path / "teacher_policy.json"
        policy.write_text(json.dumps({"policy": "gold", "answers": {
            it.question: it.gold_text for it in pool_items[::2]}}), encoding="utf-8")
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"]["url"] = f"mock:{policy}"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        for args in (self.command("gen-cot", config),
                     self.command("run", config, "--stage", "knn_fewshot_cot")):
            assert main(args) == 3
            assert "no scripted answer" in capsys.readouterr().err
        assert not (tmp_path / "cache" / "exemplars").exists()


@pytest.fixture
def index_loads(monkeypatch):
    """Names of the index headers `VectorIndex.load` reads, in call order."""
    names = []
    load = VectorIndex.load.__func__

    def spy(cls, path, provider=None):
        names.append(Path(path).name)
        return load(cls, path, provider=provider)

    monkeypatch.setattr(VectorIndex, "load", classmethod(spy))
    return names


def build_shaped_env(tmp_path, dataset):
    """`build_env` for another dataset's shape: PubMedQA's yes/no/maybe
    options with a context, or MMLU-Med's subjects and `dev` pool."""
    config, _, _ = build_env(tmp_path, n_test=1, n_pool=FEWSHOT_SIZE)
    pool_split = corpus.POOL_SPLIT[dataset]

    def shape(i, text):
        if dataset is Dataset.PUBMEDQA:
            return {"options": tuple(zip("ABC", corpus.PUBMEDQA_WORDS)),
                    "context": f"Abstract {i} of {text}."}
        return {"subject": corpus.MMLU_MED_SUBJECTS[i % len(corpus.MMLU_MED_SUBJECTS)]}

    def items(split, n, text, gold):
        return [make_item(i, split=split, dataset=dataset, question=f"{text} {i}?", gold=gold,
                          **shape(i, text))
                for i in range(n)]

    test_items = items(Split.TEST, 6, "Exam question number", "B")
    pool_items = items(pool_split, 30, "Drill question about area", "C")
    write_normalized(test_items, tmp_path / "corpus" / dataset.value / "test.jsonl")
    write_normalized(pool_items, tmp_path / "corpus" / dataset.value / f"{pool_split.value}.jsonl")
    # The mocks key an answer by the question as the prompt shows it, context first.
    (tmp_path / "policy.json").write_text(json.dumps({"policy": "gold", "answers": {
        " ".join(filter(None, (it.context, it.question))): it.gold_text
        for it in test_items + pool_items}}), encoding="utf-8")
    return config


class TestCoveredPass:
    """A kNN pass whose every item the manifest and the CoT cache cover reads
    neither index file: the manifest names each exemplar's pool line. An item
    that is not covered loads the index before the first target call."""

    command = staticmethod(TestExemplarManifest.command)
    prompts = TestExemplarManifest.prompts
    run_alone = TestExemplarManifest.run_alone

    @staticmethod
    def manifest_docs(root):
        manifest = root / "cache" / "exemplars" / "medqa.jsonl"
        return [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]

    @staticmethod
    def write_manifest(root, docs):
        manifest = root / "cache" / "exemplars" / "medqa.jsonl"
        manifest.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")

    @pytest.mark.parametrize("stage", ["knn_fewshot_cot", "ensemble"])
    def test_covered_pass_opens_neither_index_file(self, tmp_path, index_loads, stage):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        index_dir = tmp_path / "cache" / "index"
        assert sorted(path.suffix for path in index_dir.iterdir()) == [".jsonl", ".npz"]
        for path in index_dir.iterdir():
            path.unlink()
        index_dir.rmdir()
        index_loads.clear()
        assert main(self.command("run", config, "--stage", stage)) == 0
        assert index_loads == []
        assert not index_dir.exists()
        assert self.prompts(tmp_path, stage) == self.run_alone(tmp_path / "alone", stage)

    def test_manifest_rows_name_each_exemplar_line(self, tmp_path):
        config, _, pool_items = build_env(tmp_path, n_test=4, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        header, *rows = self.manifest_docs(tmp_path)
        assert header["schema"] == 3
        assert header["provider_id"] == "builtin-tfidf-v1:dim=512"
        offsets = line_offsets(tmp_path / "corpus" / "medqa" / "train.jsonl")
        offset_of = {item.id: offsets[i] for i, item in enumerate(pool_items)}
        for row in rows:
            assert list(row) == ["item_id", "exemplars", "offsets"]
            assert row["offsets"] == [offset_of[i] for i in row["exemplars"]]

    def test_limited_run_parses_only_its_items_exemplar_lines(self, tmp_path, parsed):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        _, *rows = self.manifest_docs(tmp_path)
        parsed.clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot",
                                 "--limit", "2")) == 0
        assert sorted(parsed) == sorted({offset for row in rows[:2] for offset in row["offsets"]})

    def test_covered_pass_does_per_exemplar_work_only(self, tmp_path, monkeypatch, parsed):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        _, *rows = self.manifest_docs(tmp_path)
        listed = [offset for row in rows for offset in row["offsets"]]
        split, digested = [], []
        item_lines, sha256 = CorpusFile.item_lines, teacher._sha256

        def split_spy(source):
            split.append(source.path.name)
            return item_lines(source)

        def digest_spy(line):
            digested.append(json.loads(line)["id"])
            return sha256(line)

        monkeypatch.setattr(CorpusFile, "item_lines", split_spy)
        monkeypatch.setattr(teacher, "_sha256", digest_spy)
        parsed.clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        # 100 listings of at most 30 pool items: each distinct one is parsed
        # and its line digested for the cache once, and the pool is never split.
        assert len(set(listed)) < len(listed)
        assert sorted(parsed) == sorted(set(listed))
        assert sorted(digested) == sorted({i for row in rows for i in row["exemplars"]})
        assert split == ["test.jsonl"]

    def test_partly_covered_run_loads_the_index_before_the_first_target_call(
            self, tmp_path, monkeypatch, capsys, index_loads):
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30)
        assert main(self.command("gen-cot", config, "--limit", "2")) == 0
        index_loads.clear()
        # Target requests join the index loads in one list, in call order.
        events = index_loads
        wrap_endpoint(monkeypatch, "target-x", lambda endpoint: RecordingEndpoint(endpoint, events))
        run = self.command("run", config, "--stage", "knn_fewshot_cot")
        assert main(run) == 0
        assert events[0] == "medqa.jsonl" and events.count("medqa.jsonl") == 1 and len(events) > 1
        # A stale index still fails the pass before any target call.
        (tmp_path / "out").rename(tmp_path / "out-first")
        index_path = tmp_path / "cache" / "index" / "medqa.jsonl"
        header, *rows = index_path.read_text(encoding="utf-8").splitlines()
        header = {**json.loads(header), "pool_sha256": "0" * 64}
        index_path.write_text("\n".join([json.dumps(header), *rows]) + "\n", encoding="utf-8")
        events.clear()
        capsys.readouterr()
        assert main(run) == 2
        assert "not built from the current" in capsys.readouterr().err
        assert events == ["medqa.jsonl"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda ids, offsets, size: (ids, [offsets[1]] + offsets[1:]),
        lambda ids, offsets, size: (ids, offsets[:4] + [size]),
        lambda ids, offsets, size: (ids, offsets[:4] + [size + 1000]),
        lambda ids, offsets, size: (ids, offsets[:4] + [offsets[4] + 1]),
        lambda ids, offsets, size: (ids, offsets[:4] + [-1]),
        lambda ids, offsets, size: (ids, offsets[:4] + [str(offsets[4])]),
        lambda ids, offsets, size: (ids, offsets[:4] + [offsets[4] == 0]),
        lambda ids, offsets, size: (ids, offsets[:4] + [float(offsets[4])]),
        lambda ids, offsets, size: (ids, offsets[:4]),
        lambda ids, offsets, size: (ids[:4], offsets[:4]),
    ], ids=["wrong-line", "offset-at-the-end", "offset-past-the-end", "mid-line",
            "negative-offset", "offset-not-a-number", "offset-a-bool", "offset-a-float",
            "offset-missing", "four-ids"])
    def test_row_that_disagrees_with_the_pool_is_ignored(self, tmp_path, caplog, index_loads,
                                                         edit):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        header, *rows = self.manifest_docs(tmp_path)
        size = (tmp_path / "corpus" / "medqa" / "train.jsonl").stat().st_size
        ids, offsets = edit(rows[5]["exemplars"], rows[5]["offsets"], size)
        rows[5] = {**rows[5], "exemplars": ids, "offsets": offsets}
        self.write_manifest(tmp_path, [header, *rows])
        index_loads.clear()
        with caplog.at_level("WARNING"):
            assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert caplog.text.count("ignoring corrupt exemplar manifest") == 1
        assert index_loads == ["medqa.jsonl"]
        assert self.prompts(tmp_path) == self.run_alone(tmp_path / "alone")

    def test_exemplar_in_the_test_split_is_refused(self, tmp_path, capsys, index_loads):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(self.command("gen-cot", config)) == 0
        header, *rows = self.manifest_docs(tmp_path)
        # A test item past `--limit` takes an exemplar's id; a manifest naming
        # the new test split's bytes still lists that exemplar.
        leaked = replace(test_items[0], id=rows[0]["exemplars"][0], question="A leaked question?")
        test_path = tmp_path / "corpus" / "medqa" / "test.jsonl"
        write_normalized(test_items + [leaked], test_path)
        header["test_sha256"] = hashlib.sha256(test_path.read_bytes()).hexdigest()
        self.write_manifest(tmp_path, [header, *rows])
        index_loads.clear()
        capsys.readouterr()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot",
                                 "--limit", "20")) == 2
        assert "pool overlaps test split on 1 ids" in capsys.readouterr().err
        assert index_loads == []
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    @pytest.mark.parametrize("name", ["pubmedqa", "mmlu_med"])
    def test_other_dataset_shapes(self, tmp_path, index_loads, name):
        dataset = Dataset(name)

        def knn_prompts(root, warm):
            config = build_shaped_env(root, dataset)
            command = ["--config", str(config), "--dataset", dataset.value]
            if warm:
                assert main(["gen-cot", *command]) == 0
                index_loads.clear()
            assert main(["run", *command, "--stage", "knn_fewshot_cot"]) == 0
            rows = trace_rows(root / "out" / dataset.value / "knn_fewshot_cot.trace.jsonl")
            assert all(row["correct"] for row in rows)
            return {row["item_id"]: row["per_run"][0]["prompt_sha256"] for row in rows}

        warm = knn_prompts(tmp_path / "warm", warm=True)
        assert index_loads == []
        assert len(set(warm.values())) == 6
        assert warm == knn_prompts(tmp_path / "alone", warm=False)


class TestWrongTypedFields:
    """A split line whose field has the wrong JSON type is a data error naming
    the file and line (exit 2): never a traceback, and never a trace row that
    `report` then calls corrupt."""

    @pytest.mark.parametrize("edit, message", [
        ({"id": 7}, "id must be a string, got 7"),
        ({"question": 5}, "test-00001: question must be a string, got 5"),
        ({"options": [["A", 1.5], ["B", "beta"], ["C", "gamma"], ["D", "delta"]]},
         "test-00001: option labels and texts must be strings, got ['A', 1.5]"),
        ({"options": [[1, "alpha"], ["B", "beta"], ["C", "gamma"], ["D", "delta"]]},
         "test-00001: option labels and texts must be strings, got [1, 'alpha']"),
        ({"gold": 1}, "test-00001: gold must be a string, got 1"),
        ({"subject": 3}, "test-00001: subject must be a string, got 3"),
        ({"context": ["a", "b"]}, "test-00001: context must be a string, got ['a', 'b']"),
    ], ids=["id", "question", "option-text", "option-label", "gold", "subject", "context"])
    def test_run_exits_2(self, tmp_path, capsys, edit, message):
        config, _, _ = build_env(tmp_path, n_test=3)
        path = tmp_path / "corpus" / "medqa" / "test.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), **edit})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"]) == 2
        assert f"test.jsonl: line 2: {message}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.trace.jsonl")) == []


class TestEveryDatasetThroughTheCli:
    """`index`, `gen-cot`, `ablate` and `report` on MedMCQA, PubMedQA and
    MMLU-Med shaped corpora, with a gold teacher: a gold target scores 100%
    on every stage, and a garbage one 0%, every row invalid after exactly
    `max_validity_tries` tries per run."""

    N_TEST = 12

    def build(self, tmp_path, dataset, target_policy):
        pool_split = corpus.POOL_SPLIT[dataset]

        def shape(i, text):
            if dataset is Dataset.PUBMEDQA:
                return {"options": tuple(zip("ABC", corpus.PUBMEDQA_WORDS)),
                        "context": f"Abstract {i} of {text}."}
            if dataset is Dataset.MMLU_MED:
                return {"subject": corpus.MMLU_MED_SUBJECTS[i % len(corpus.MMLU_MED_SUBJECTS)]}
            return {}

        def items(split, n, text, gold):
            return [make_item(i, split=split, dataset=dataset, question=f"{text} {i}?",
                              gold=gold, **shape(i, text))
                    for i in range(n)]

        test_items = items(Split.TEST, self.N_TEST, "Exam question number", "B")
        pool_items = items(pool_split, 30, "Drill question about area", "C")
        corpus_dir = tmp_path / "corpus" / dataset.value
        write_normalized(test_items, corpus_dir / "test.jsonl")
        write_normalized(pool_items, corpus_dir / f"{pool_split.value}.jsonl")
        # The mocks key an answer by the question as the prompt shows it, context first.
        gold = {"policy": "gold", "answers": {
            " ".join(filter(None, (it.context, it.question))): it.gold_text
            for it in test_items + pool_items}}
        for name, spec in (("teacher", gold), ("target", {**gold, "policy": target_policy})):
            (tmp_path / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "corpus_dir": "corpus", "output_dir": "out", "cache_dir": "cache",
            "target": {"url": "mock:target.json", "model": "target-x"},
            "teacher": {"url": "mock:teacher.json", "model": "teacher-x"},
        }), encoding="utf-8")
        return config

    @pytest.mark.parametrize("policy", ["gold", "garbage"])
    @pytest.mark.parametrize("name", ["medmcqa", "pubmedqa", "mmlu_med"])
    def test_ladder(self, tmp_path, name, policy):
        config = self.build(tmp_path, Dataset(name), policy)
        for command in ("index", "gen-cot", "ablate", "report"):
            assert main([command, "--config", str(config), "--dataset", name]) == 0
        out = tmp_path / "out" / name
        percent = 100.0 if policy == "gold" else 0.0
        table = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        assert [row["accuracy_percent"] for row in table["rows"]] == [percent] * 5
        tries = load_config(config).max_validity_tries
        for stage in cli.STAGE_NAMES:
            rows = trace_rows(out / f"{stage}.trace.jsonl")
            assert len(rows) == self.N_TEST
            if policy == "gold":
                assert all(row["correct"] for row in rows)
            else:
                assert {row["decision"] for row in rows} == {INVALID}
                assert {run["tries"] for row in rows for run in row["per_run"]} == {tries}
        if name == "mmlu_med":
            subjects = json.loads((out / "subjects.json").read_text(encoding="utf-8"))
            counts = {subject: (stats["n_items"], stats["n_correct"])
                      for subject, stats in subjects["subjects"].items()}
            # Twelve items over nine subjects: the first three get two each.
            n_items = {subject: 2 if i < 3 else 1
                       for i, subject in enumerate(corpus.MMLU_MED_SUBJECTS)}
            assert counts == {subject: (n, n if policy == "gold" else 0)
                              for subject, n in n_items.items()}
        else:
            assert not (out / "subjects.json").exists()


class RecordingEndpoint:
    """`wrap_endpoint`'s wrapper that appends each request to `requests` and
    counts its closes."""

    def __init__(self, endpoint, requests=None):
        self.endpoint, self.model_id = endpoint, endpoint.model_id
        self.requests = [] if requests is None else requests
        self.closed = 0

    def complete(self, request):
        self.requests.append(request)
        return self.endpoint.complete(request)

    def close(self):
        self.closed += 1


@pytest.fixture
def built(monkeypatch):
    """The endpoints commands build, in order, as (model id, endpoint)."""
    endpoints = []
    build_endpoint = cli.build_endpoint

    def spy(spec, retry):
        endpoint = RecordingEndpoint(build_endpoint(spec, retry))
        endpoints.append((spec.model_id, endpoint))
        return endpoint

    monkeypatch.setattr(cli, "build_endpoint", spy)
    return endpoints


class TestTeacherOpenedOnFirstCall:
    """The teacher endpoint acquires nothing before its first call, so a stage
    the manifest and the cache cover makes no teacher call; a missing or bad
    `teacher:` block still fails before any target call."""

    @pytest.mark.parametrize("stage", ["knn_fewshot_cot", "ensemble"])
    def test_covered_stage_makes_no_teacher_call(self, tmp_path, built, stage):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        assert [model for model, _ in built] == ["teacher-x"]
        built.clear()
        assert main(TestExemplarManifest.command("run", config, "--stage", stage)) == 0
        calls = {model: len(endpoint.requests) for model, endpoint in built}
        assert calls["teacher-x"] == 0 and calls["target-x"] >= 20

    def test_covered_stage_never_parses_the_teacher_policy(self, tmp_path):
        # The up-front check only looks for the policy file.
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        (tmp_path / "teacher.json").write_text("not a policy", encoding="utf-8")
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"]["url"] = f"mock:{tmp_path / 'teacher.json'}"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0

    def test_manifest_misses_open_the_teacher_once(self, tmp_path, built):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30, config_extra={"concurrency": 4})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(TestExemplarManifest.command("run", config, "--stage",
                                                     "knn_fewshot_cot"))
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert sorted(model for model, _ in built) == ["target-x", "teacher-x"]
        assert [endpoint.closed for _, endpoint in built] == [1, 1]

    @pytest.mark.parametrize("stage", ["random_fewshot_cot", "knn_fewshot_cot", "ensemble"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_config_without_a_teacher_fails_before_any_target_call(
            self, tmp_path, monkeypatch, capsys, stage, warm):
        config, _, _ = build_env(tmp_path, n_test=6, n_pool=12)
        if warm:
            assert main(TestExemplarManifest.command("gen-cot", config)) == 0
            assert main(TestExemplarManifest.command("gen-cot", config, "--kind",
                                                     "random")) == 0
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        del doc["teacher"]
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        calls = []
        wrap_endpoint(monkeypatch, "target-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        capsys.readouterr()
        assert main(TestExemplarManifest.command("run", config, "--stage", stage)) == 1
        assert "add a `teacher:` block" in capsys.readouterr().err
        assert calls == []


    @staticmethod
    def fails_before_any_target_call(tmp_path, monkeypatch, capsys, teacher, message):
        """With the `teacher:` block set to `teacher` after `gen-cot` covered 3
        of 4 items, a dry run still works, and a kNN run exits 1 with `message`
        before any target call or trace row."""
        config, _, _ = build_env(tmp_path, n_pool=30)
        assert main(TestExemplarManifest.command("index", config)) == 0
        assert main(TestExemplarManifest.command("gen-cot", config, "--limit", "3")) == 0
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"] = {"model": "teacher-x", **teacher}
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        run = TestExemplarManifest.command("run", config, "--stage", "knn_fewshot_cot")
        assert main(run + ["--dry-run"]) == 0
        calls = []
        wrap_endpoint(monkeypatch, "target-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        capsys.readouterr()
        assert main(run) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out" / "medqa" / "knn_fewshot_cot.trace.jsonl").exists()

    def test_unset_teacher_credential_fails_before_any_target_call(self, tmp_path,
                                                                  monkeypatch, capsys):
        monkeypatch.delenv("MEDHARNESS_TEST_UNSET_KEY", raising=False)
        self.fails_before_any_target_call(
            tmp_path, monkeypatch, capsys,
            {"url": "http://127.0.0.1:9", "api_key_env": "MEDHARNESS_TEST_UNSET_KEY"},
            "credential variable MEDHARNESS_TEST_UNSET_KEY is not set")

    @pytest.mark.parametrize("url, message", [
        ("ftp://x", "endpoint URL must be http(s)://host[:port][/path], got 'ftp://x'"),
        ("mock:/nonexistent/policy.json", "mock policy file missing: /nonexistent/policy.json"),
    ], ids=["bad-scheme", "missing-mock-file"])
    def test_bad_teacher_url_fails_before_any_target_call(self, tmp_path, monkeypatch, capsys,
                                                          url, message):
        self.fails_before_any_target_call(tmp_path, monkeypatch, capsys, {"url": url}, message)

    @pytest.mark.parametrize("teacher, message", [
        (None, "add a `teacher:` block"),
        ({"url": "ftp://x", "model": "teacher-x"},
         "endpoint URL must be http(s)://host[:port][/path], got 'ftp://x'"),
    ], ids=["no-teacher-block", "bad-scheme"])
    def test_ablate_checks_the_teacher_before_any_target_call(self, tmp_path, monkeypatch,
                                                              capsys, teacher, message):
        # The zero-shot and answer-only stages come first and need no teacher.
        config, _, _ = build_env(tmp_path, n_pool=30)
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"] = teacher
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        calls = []
        wrap_endpoint(monkeypatch, "target-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        capsys.readouterr()
        assert main(TestExemplarManifest.command("ablate", config)) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    def test_mock_teacher_reads_no_credential(self, tmp_path, monkeypatch):
        config, _, _ = build_env(tmp_path)
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["teacher"]["api_key_env"] = "MEDHARNESS_TEST_UNSET_KEY"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        monkeypatch.delenv("MEDHARNESS_TEST_UNSET_KEY", raising=False)
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0


class TestEndpointsBuiltOnce:
    """A command builds each endpoint it needs once, when it starts, and
    closes each once: `ablate`'s five stages share one target."""

    def test_ablate_builds_and_closes_each_endpoint_once(self, tmp_path, built):
        config, _, _ = build_env(tmp_path, n_pool=30)
        assert main(TestExemplarManifest.command("ablate", config)) == 0
        assert sorted(model for model, _ in built) == ["target-x", "teacher-x"]
        assert [endpoint.closed for _, endpoint in built] == [1, 1]
        [target] = [endpoint for model, endpoint in built if model == "target-x"]
        assert len(target.requests) == sum(
            row["n_calls"] for stage in cli.STAGE_NAMES
            for row in trace_rows(tmp_path / "out" / "medqa" / f"{stage}.trace.jsonl"))


class TestEmbeddingPreflight:
    """A command that reaches a kNN stage checks the `embedding:` block before
    any call, so a fault there costs no target call and leaves no trace."""

    @pytest.mark.parametrize("command", [
        ["run", "--stage", "knn_fewshot_cot"], ["run", "--stage", "ensemble"], ["ablate"],
    ], ids=["knn_fewshot_cot", "ensemble", "ablate"])
    @pytest.mark.parametrize("embedding, message", [
        ({"url": "ftp://x"},
         "endpoint URL must be http(s)://host[:port][/path], got 'ftp://x'"),
        ({"url": "mock:/nonexistent/embedding.json"},
         "embedding: url must be an http(s) URL, got 'mock:/nonexistent/embedding.json'"),
        ({"url": "http://127.0.0.1:9", "api_key_env": "MEDHARNESS_TEST_UNSET_KEY"},
         "credential variable MEDHARNESS_TEST_UNSET_KEY is not set"),
    ], ids=["bad-scheme", "missing-mock-file", "unset-credential"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bad_embedding_fails_before_any_target_call(self, tmp_path, monkeypatch, capsys,
                                                        command, embedding, message, warm):
        monkeypatch.delenv("MEDHARNESS_TEST_UNSET_KEY", raising=False)
        config, _, _ = build_env(tmp_path, n_pool=30)
        if warm:
            assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["embedding"] = {"model": "embedder", **embedding}
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        calls = []
        wrap_endpoint(monkeypatch, "target-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        capsys.readouterr()
        assert main(TestExemplarManifest.command(command[0], config, *command[1:])) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.rglob("*.trace.jsonl")) == []


class TestTargetPreflight:
    """`run` and `ablate` check the `target:` block before any call, so a fault
    there costs no teacher call and leaves no trace; `gen-cot` and dry runs,
    which send nothing to the target, do not check it."""

    @staticmethod
    def with_target_url(config, url):
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["target"]["url"] = url
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")

    @pytest.mark.parametrize("command", [["run", "--stage", "random_fewshot_cot"], ["ablate"]],
                             ids=["random_fewshot_cot", "ablate"])
    @pytest.mark.parametrize("url, message", [
        ("ftp://x", "endpoint URL must be http(s)://host[:port][/path], got 'ftp://x'"),
        ("mock:/nonexistent/policy.json", "mock policy file missing: /nonexistent/policy.json"),
    ], ids=["bad-scheme", "missing-mock-file"])
    def test_bad_target_fails_before_any_teacher_call(self, tmp_path, monkeypatch, capsys,
                                                      command, url, message):
        config, _, _ = build_env(tmp_path, n_pool=30)
        self.with_target_url(config, url)
        calls = []
        wrap_endpoint(monkeypatch, "teacher-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        capsys.readouterr()
        assert main(TestExemplarManifest.command(command[0], config, *command[1:])) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.rglob("*.trace.jsonl")) == []

    def test_commands_that_send_nothing_to_the_target_do_not_check_it(self, tmp_path):
        config, _, _ = build_env(tmp_path, n_pool=30)
        self.with_target_url(config, "ftp://x")
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        assert main(TestExemplarManifest.command("gen-cot", config, "--kind", "random")) == 0
        for stage in cli.STAGE_NAMES:
            assert main(TestExemplarManifest.command("run", config, "--stage", stage,
                                                     "--dry-run")) == 0


class TestRelativeMockPath:
    def test_mock_path_is_taken_from_the_config_directory(self, tmp_path, monkeypatch):
        config, _, _ = build_env(tmp_path)
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        for block in ("target", "teacher"):
            doc[block]["url"] = "mock:policy.json"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0
        assert load_config(config).target.url == f"mock:{tmp_path / 'policy.json'}"


class TestPromptParts:
    """Exemplar blocks are rendered once per exemplar object and cot flag, and
    kept no longer than the command that made the exemplars."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        """(exemplar, cot flag) of each block render, in call order."""
        renders = []
        render = promptkit._exemplar_block

        def spy(exemplar, cot):
            renders.append((exemplar, cot))
            return render(exemplar, cot)

        monkeypatch.setattr(promptkit, "_exemplar_block", spy)
        return renders

    def test_ablate_renders_each_block_once(self, tmp_path, rendered):
        config, _, _ = build_env(tmp_path, n_test=6, n_pool=12)
        assert main(TestExemplarManifest.command("ablate", config)) == 0
        keys = [(id(exemplar), cot) for exemplar, cot in rendered]
        assert len(keys) == len(set(keys))
        # The exemplar a teacher verifies is the one later uses of its pool
        # item object get back, so each pool item object shows one block.
        items = [(id(exemplar.item), cot) for exemplar, cot in rendered]
        assert len(items) == len(set(items))
        # The answer-only stage's five blocks serve all six items.
        assert [cot for _, cot in rendered].count(False) == FEWSHOT_SIZE

    def test_a_new_command_renders_its_blocks_again(self, tmp_path, rendered):
        config, _, _ = build_env(tmp_path)
        run = TestExemplarManifest.command("run", config, "--stage", "random_fewshot")
        assert main(run) == 0
        first = len(rendered)
        assert first == FEWSHOT_SIZE
        (tmp_path / "out" / "medqa" / "random_fewshot.trace.jsonl").unlink()
        assert main(run) == 0
        assert len(rendered) == 2 * first
        assert {exemplar.item.id for exemplar, _ in rendered[:first]} == {
            exemplar.item.id for exemplar, _ in rendered[first:]}


class TestPoolLineDigest:
    """A cache hit is checked against the digest of the exemplar's pool line,
    and no pool item is serialized again to check it."""

    @pytest.fixture
    def serialized(self, monkeypatch):
        """Ids of the pool items whose canonical JSON is built, in call order."""
        ids = []
        canonical_json = corpus.McqItem.canonical_json

        def spy(item):
            if item.split is Split.TRAIN:
                ids.append(item.id)
            return canonical_json(item)

        monkeypatch.setattr(corpus.McqItem, "canonical_json", spy)
        return ids

    @staticmethod
    def exemplar_ids(root):
        manifest = root / "cache" / "exemplars" / "medqa.jsonl"
        rows = manifest.read_text(encoding="utf-8").splitlines()[1:]
        return {i for row in rows for i in json.loads(row)["exemplars"]}

    def test_covered_run_over_canonical_lines_serializes_no_pool_item(self, tmp_path,
                                                                      serialized):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        serialized.clear()
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0
        assert serialized == []

    def test_non_canonical_lines_miss_and_are_asked_again(self, tmp_path, monkeypatch,
                                                           serialized):
        calls = []
        canonical = TestExemplarManifest().run_alone(tmp_path / "canonical")
        config, _, pool_items = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        # Every third line keeps its canonical form; the others reorder keys,
        # add spaces, or do both with a CRLF ending.
        pool = tmp_path / "corpus" / "medqa" / "train.jsonl"
        lines = pool.read_text(encoding="utf-8").splitlines()
        rewritten = set()
        for i, line in enumerate(lines):
            obj = json.loads(line)
            if i % 3 == 1:
                lines[i] = json.dumps(dict(reversed(obj.items())), ensure_ascii=False)
            elif i % 3 == 2:
                lines[i] = " " + json.dumps(obj, indent=1).replace("\n", " ") + " \r"
            else:
                continue
            rewritten.add(obj["id"])
        pool.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        wrap_endpoint(monkeypatch, "teacher-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        assert main(TestExemplarManifest.command("index", config)) == 0
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        # The exemplars are the same; each one on a rewritten line missed its
        # row and was asked about once, and the run that follows is covered.
        used = self.exemplar_ids(tmp_path)
        assert used & rewritten and used - rewritten
        by_id = {item.id: item for item in pool_items}
        assert (sorted(request.prompt for request in calls)
                == sorted(teacher_prompt(by_id[i]) for i in used & rewritten))
        calls.clear()
        serialized.clear()
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0
        assert calls == [] and serialized == []
        assert TestExemplarManifest().prompts(tmp_path) == canonical

    def test_item_reingested_under_the_same_id_misses(self, tmp_path, monkeypatch, index_loads):
        config, _, pool_items = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        # Another pool that reuses an exemplar's id for other text writes that
        # id's row last, as a shared cache would hold it.
        exemplar_id = sorted(self.exemplar_ids(tmp_path))[0]
        original = next(item for item in pool_items if item.id == exemplar_id)
        other = replace(original, question=original.question + " Edited?")
        with closing(teacher.CotCache(tmp_path / "cache", "teacher-x")) as cache:
            cache.put(other, other.canonical_json(), "About the edited item.")
        calls = []
        wrap_endpoint(monkeypatch, "teacher-x", lambda endpoint: RecordingEndpoint(endpoint, calls))
        index_loads.clear()
        assert main(TestExemplarManifest.command("run", config, "--stage",
                                                 "knn_fewshot_cot")) == 0
        # A row failing its digest check leaves its items uncovered.
        assert index_loads == ["medqa.jsonl"]
        assert [request.prompt for request in calls] == [teacher_prompt(original)]
        assert (TestExemplarManifest().prompts(tmp_path)
                == TestExemplarManifest().run_alone(tmp_path / "alone"))


class FailingTarget(RecordingEndpoint):
    """`wrap_endpoint`'s wrapper for a target that raises `error` for every call
    about `question`, after noting how many complete rows the trace holds on
    disk at that moment in `rows_on_disk`."""

    def __init__(self, endpoint, question, error, trace):
        super().__init__(endpoint)
        self.question, self.error, self.trace = question, error, trace
        self.rows_on_disk = []

    def complete(self, request):
        if parse_prompt_tail(request.prompt)["question"] == self.question:
            self.rows_on_disk.append(len(trace_rows(self.trace)) if self.trace.exists() else 0)
            raise self.error
        return self.endpoint.complete(request)


class TestTraceWriter:
    """A stage writes its trace through one handle, flushed after each row and
    closed on every exit path, so an interrupted stage resumes to the rows of
    an uninterrupted one."""

    @pytest.fixture
    def handles(self, monkeypatch):
        """The trace files opened for appending, and what was raised where no
        caller could see it (a file closed only by the garbage collector)."""
        opened, unraisable = [], []

        def spy(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if Path(file).name.endswith(".trace.jsonl") and "a" in mode:
                opened.append(f)
            return f

        monkeypatch.setattr(corpus, "open", spy, raising=False)
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        return opened, unraisable

    def interrupted(self, root, monkeypatch, stage, fail_at, error, **config_extra):
        """Run `stage` with a target failing on the item at index `fail_at`;
        return the exit code, the test items and the failing target."""
        config, test_items, _ = build_env(root, n_test=8, n_pool=30, config_extra=config_extra)
        trace = root / "out" / "medqa" / f"{stage}.trace.jsonl"
        targets = []

        def wrap(endpoint):
            targets.append(FailingTarget(endpoint, test_items[fail_at].question, error, trace))
            return targets[-1]

        wrap_endpoint(monkeypatch, "target-x", wrap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(TestExemplarManifest.command("run", config, "--stage", stage))
            gc.collect()
        monkeypatch.setattr(cli, "build_endpoint", config_build_endpoint)
        return code, test_items, targets[0]

    def resumed_equals_uninterrupted(self, root, stage, **config_extra):
        args = ["--stage", stage]
        assert main(TestExemplarManifest.command("run", root / "config.yaml", *args,
                                                 "--resume")) == 0
        config, _, _ = build_env(root / "alone", n_test=8, n_pool=30, config_extra=config_extra)
        assert main(TestExemplarManifest.command("run", config, *args)) == 0
        trace = Path("out", "medqa", f"{stage}.trace.jsonl")
        assert sorted_rows(root / trace) == sorted_rows(root / "alone" / trace)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_interrupt_at_item_k_leaves_k_minus_1_rows(self, tmp_path, monkeypatch, handles,
                                                       k):
        stage = "knn_fewshot_cot"
        code, test_items, target = self.interrupted(tmp_path, monkeypatch, stage, k - 1,
                                                    KeyboardInterrupt())
        assert code == 130
        # Each earlier row was on disk before item k's call, not only at close.
        assert target.rows_on_disk == [k - 1]
        trace = tmp_path / "out" / "medqa" / f"{stage}.trace.jsonl"
        assert [row["item_id"] for row in trace_rows(trace)] == [
            item.id for item in test_items[:k - 1]]
        opened, unraisable = handles
        assert len(opened) == 1 and opened[0].closed
        assert unraisable == []
        self.resumed_equals_uninterrupted(tmp_path, stage)

    def test_endpoint_error_at_concurrency_4_resumes_to_the_same_rows(
            self, tmp_path, monkeypatch, handles, capsys):
        stage = "ensemble"
        code, test_items, _ = self.interrupted(tmp_path, monkeypatch, stage, 5,
                                               EndpointError("connection reset"),
                                               concurrency=4)
        assert code == 3
        assert "connection reset" in capsys.readouterr().err
        trace = tmp_path / "out" / "medqa" / f"{stage}.trace.jsonl"
        written = [row["item_id"] for row in trace_rows(trace)]
        assert len(set(written)) == len(written)
        assert test_items[5].id not in written
        opened, unraisable = handles
        assert len(opened) == 1 and opened[0].closed
        assert unraisable == []
        self.resumed_equals_uninterrupted(tmp_path, stage, concurrency=4)


class TestDryRunRequest:
    def test_prints_the_request_a_run_sends(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path)
        assert main(["gen-cot", "--config", str(config), "--dataset", "medqa",
                     "--limit", "1"]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "ensemble", "--dry-run"]) == 0
        params = capsys.readouterr().out.partition("\n---\n")[2]
        assert params == (
            "model: target-x\n"
            "stage: ensemble  items: 4\n"
            'temperature: 0.4  max_tokens: 256  stop: ["\\n### Question:"]  seed: 0\n'
            "ensemble runs: 5 (shuffled options per run)\n"
        )

    @pytest.mark.parametrize("stage", cli.STAGE_NAMES)
    def test_prints_run_0_of_the_first_item(self, tmp_path, capsys, monkeypatch, stage):
        config, _, _ = build_env(tmp_path)
        command = ["--config", str(config), "--dataset", "medqa"]
        if Stage(stage).cot:
            kind = "random" if stage == "random_fewshot_cot" else "knn"
            assert main(["gen-cot", *command, "--kind", kind]) == 0
        capsys.readouterr()
        assert main(["run", *command, "--stage", stage, "--dry-run"]) == 0
        prompt, _, params = capsys.readouterr().out.partition("\n---\n")
        sent = []

        class RecordingTarget:
            def __init__(self, endpoint):
                self.endpoint = endpoint
                self.model_id = endpoint.model_id

            def complete(self, request):
                sent.append(request)
                return self.endpoint.complete(request)

        wrap_endpoint(monkeypatch, "target-x", RecordingTarget)
        assert main(["run", *command, "--stage", stage]) == 0
        [first_row, *_] = trace_rows(tmp_path / "out" / "medqa" / f"{stage}.trace.jsonl")
        assert (hashlib.sha256(prompt.encode("utf-8")).hexdigest()
                == first_row["per_run"][0]["prompt_sha256"])
        first = sent[0]
        assert prompt == first.prompt
        assert (f"temperature: {first.temperature}  max_tokens: {first.max_tokens}  "
                f"stop: {json.dumps(list(first.stop_sequences))}  seed: {first.seed}\n") in params


class EmbeddingHandler(BaseHTTPRequestHandler):
    """Embeddings server: each input's vector comes from its text's digest.
    `server.paths` logs the path of every request."""

    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["input"]
        self.server.paths.append(self.path)
        body = json.dumps({"data": [
            {"index": i, "embedding": [1.0 + b for b in hashlib.sha256(text.encode()).digest()[:8]]}
            for i, text in enumerate(texts)]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def embedding_server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), EmbeddingHandler)
    httpd.paths = []
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def files_under(root):
    """Each file under `root` with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestDryRunCallsNothing:
    """A dry run calls no endpoint and writes no file: where it would need an
    index build, an embedding call or a teacher call, it exits 1 naming the
    command to run first."""

    @pytest.mark.parametrize("stage", ["knn_fewshot_cot", "ensemble"])
    def test_builtin_embedder_without_an_index_builds_none(self, tmp_path, capsys, stage):
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30)
        before = files_under(tmp_path)
        assert main(TestExemplarManifest.command("run", config, "--stage", stage,
                                                 "--dry-run")) == 1
        assert "run `index` or `gen-cot` first" in capsys.readouterr().err
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("indexed", [False, True], ids=["no-index", "indexed"])
    def test_embedding_endpoint_is_never_called(self, tmp_path, capsys, embedding_server,
                                                indexed):
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30, config_extra={"embedding": {
            "url": f"http://127.0.0.1:{embedding_server.server_address[1]}",
            "model": "embedder"}})
        if indexed:
            assert main(TestExemplarManifest.command("index", config)) == 0
            assert len(embedding_server.paths) == 30
        embedding_server.paths.clear()
        capsys.readouterr()
        before = files_under(tmp_path)
        assert main(TestExemplarManifest.command("run", config, "--stage", "knn_fewshot_cot",
                                                 "--dry-run")) == 1
        err = capsys.readouterr().err
        assert ("run `gen-cot` first" if indexed else "run `index` or `gen-cot` first") in err
        assert embedding_server.paths == []
        assert files_under(tmp_path) == before

    def test_reads_only_its_first_items_manifest_row(self, tmp_path, parsed, capsys):
        config, _, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(TestExemplarManifest.command("gen-cot", config)) == 0
        manifest = tmp_path / "cache" / "exemplars" / "medqa.jsonl"
        _, first, *_ = [json.loads(line) for line in manifest.read_text().splitlines()]
        parsed.clear()
        capsys.readouterr()
        assert main(TestExemplarManifest.command("run", config, "--stage", "knn_fewshot_cot",
                                                 "--dry-run")) == 0
        assert parsed == first["offsets"]
        assert capsys.readouterr().out.partition("\n---\n")[0].endswith("### Explanation:")


class TestIndexedPool:
    """After `index`, a kNN stage parses only the pool lines it looks up, and
    only while the pool file holds the bytes the index was built from."""

    def indexed(self, tmp_path, **kwargs):
        config, test_items, pool_items = build_env(tmp_path, **kwargs)
        assert main(["index", "--config", str(config), "--dataset", "medqa"]) == 0
        return config, test_items, pool_items

    @staticmethod
    def command(name, config, *extra):
        return [name, "--config", str(config), "--dataset", "medqa", *extra]

    def test_index_records_the_pool_digest(self, tmp_path):
        self.indexed(tmp_path)
        pool = tmp_path / "corpus" / "medqa" / "train.jsonl"
        index_path = tmp_path / "cache" / "index" / "medqa.jsonl"
        header = json.loads(index_path.read_text(encoding="utf-8").splitlines()[0])
        assert header["schema"] == 4
        assert header["pool_sha256"] == hashlib.sha256(pool.read_bytes()).hexdigest()

    def test_edited_unused_pool_line_needs_a_rebuild(self, tmp_path, capsys):
        config, test_items, pool_items = self.indexed(tmp_path, n_pool=30)
        index = VectorIndex.load(tmp_path / "cache" / "index" / "medqa.jsonl")
        used = {item_id for ns in index.nearest_many(test_items, 5) for item_id in ns.ids}
        unused = next(item for item in pool_items if item.id not in used)
        pool = tmp_path / "corpus" / "medqa" / "train.jsonl"
        data = pool.read_bytes()
        question = unused.question.encode("utf-8")
        assert data.count(question) == 1
        pool.write_bytes(data.replace(question, b"B" + question[1:]))
        for args in (self.command("run", config, "--stage", "knn_fewshot_cot"),
                     self.command("gen-cot", config)):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert "not built from the current" in err
            assert "rebuild with `medharness index`" in err
        assert main(self.command("index", config)) == 0
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0

    def test_index_without_pool_digest_needs_a_rebuild(self, tmp_path, capsys):
        config, _, _ = self.indexed(tmp_path)
        index_path = tmp_path / "cache" / "index" / "medqa.jsonl"
        header, *rows = index_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(header)
        del header["pool_sha256"]
        index_path.write_text("\n".join([json.dumps(header), *rows]) + "\n", encoding="utf-8")
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 2
        assert "(pool_sha256 not recorded); rebuild with `medharness index`" \
            in capsys.readouterr().err

    def test_pool_id_in_test_split_is_refused(self, tmp_path, capsys):
        config, test_items, pool_items = self.indexed(tmp_path)
        leaked = replace(test_items[0], id=pool_items[3].id, question="A leaked question?")
        write_normalized(test_items + [leaked], tmp_path / "corpus" / "medqa" / "test.jsonl")
        for args in (self.command("run", config, "--stage", "knn_fewshot_cot"),
                     self.command("run", config, "--stage", "random_fewshot"),
                     self.command("index", config)):
            assert main(args) == 2
            assert "pool overlaps test split on 1 ids" in capsys.readouterr().err

    def test_run_reads_only_the_test_split(self, tmp_path, loads):
        config, _, _ = self.indexed(tmp_path)
        loads.clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert loads == ["test.jsonl"]

    def test_ablate_reads_the_pool_file_once(self, tmp_path, reads, loads):
        config, _, _ = self.indexed(tmp_path)
        reads.clear()
        loads.clear()
        assert main(self.command("ablate", config)) == 0
        assert sorted(reads) == ["test.jsonl", "train.jsonl"]
        assert loads == ["test.jsonl"]

    def test_run_parses_only_ranked_candidates(self, tmp_path, monkeypatch, parsed):
        config, _, _ = self.indexed(tmp_path, n_test=8, n_pool=60)
        candidates = set()
        nearest_many = VectorIndex.nearest_many

        def nearest_spy(index, queries, k):
            for neighbor_set in nearest_many(index, queries, k):
                candidates.update(neighbor_set.ids)
                yield neighbor_set

        monkeypatch.setattr(VectorIndex, "nearest_many", nearest_spy)
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert len(set(parsed)) == len(parsed) <= len(candidates) < 60

    def test_concurrent_run_builds_the_same_prompts(self, tmp_path):
        def prompts(root, concurrency):
            config, _, _ = self.indexed(root, n_test=40, n_pool=30,
                                        config_extra={"concurrency": concurrency})
            assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
            rows = trace_rows(root / "out" / "medqa" / "knn_fewshot_cot.trace.jsonl")
            return {row["item_id"]: row["per_run"][0]["prompt_sha256"] for row in rows}

        serial = prompts(tmp_path / "serial", 1)
        assert len(set(serial.values())) == 40
        assert prompts(tmp_path / "concurrent", 8) == serial


class TestRandomPool:
    """`index` and random stages read only the pool's ids and questions; a
    random stage parses only the pool lines it draws."""

    @staticmethod
    def command(name, config, *extra):
        return [name, "--config", str(config), "--dataset", "medqa", *extra]

    @pytest.mark.parametrize("stage", ["random_fewshot", "random_fewshot_cot"])
    def test_stage_parses_only_the_drawn_lines(self, tmp_path, parsed, stage):
        config, _, pool_items = build_env(tmp_path, n_pool=60)
        assert main(self.command("run", config, "--stage", stage)) == 0
        ids = [item.id for item in pool_items]
        drawn = random_candidate_stream(ids, seed=0)[:FEWSHOT_SIZE]
        offsets = line_offsets(tmp_path / "corpus" / "medqa" / "train.jsonl")
        assert sorted(parsed) == sorted(offsets[ids.index(item_id)] for item_id in drawn)

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: [obj["id"]], "train.jsonl: line 3: expected a JSON object"),
        (lambda obj: {**obj, "question": " "},
         "train.jsonl: line 3: train-00002: question must be non-empty"),
        (lambda obj: {**obj, "id": "train-00000"}, "duplicate item id 'train-00000'"),
    ], ids=["not-an-object", "blank-question", "duplicate-id"])
    def test_index_refuses_a_bad_pool_line(self, tmp_path, capsys, edit, message):
        config, _, _ = build_env(tmp_path)
        edit_pool_line(tmp_path, 2, edit)
        assert main(self.command("index", config)) == 2
        assert message in capsys.readouterr().err

    def test_index_parses_no_item(self, tmp_path, loads, parsed):
        config, _, _ = build_env(tmp_path)
        assert main(self.command("index", config)) == 0
        # The test split's ids for the overlap check come from its lines, too.
        assert (loads, parsed) == ([], [])

    @pytest.mark.parametrize("edit", [{"gold": "Z"}, {"options": 5}],
                             ids=["gold", "options"])
    def test_drawn_invalid_item_fails_the_stage(self, tmp_path, capsys, edit):
        config, _, pool_items = build_env(tmp_path)
        ids = [item.id for item in pool_items]
        line = ids.index(random_candidate_stream(ids, seed=0)[0])
        edit_pool_line(tmp_path, line, lambda obj: {**obj, **edit})
        # `index` reads ids and questions only; the stage that draws the item refuses it.
        assert main(self.command("index", config)) == 0
        assert main(self.command("run", config, "--stage", "random_fewshot")) == 2
        assert f"train.jsonl: line {line + 1}:" in capsys.readouterr().err


class TestPoolSplitOnce:
    """A command splits the pool file into lines at most once."""

    @pytest.fixture
    def split(self, monkeypatch):
        """Names of the files `CorpusFile.item_lines` splits, in call order."""
        names = []
        item_lines = CorpusFile.item_lines

        def spy(source):
            names.append(source.path.name)
            return item_lines(source)

        monkeypatch.setattr(CorpusFile, "item_lines", spy)
        return names

    def test_ablate_learns_the_pool_once(self, tmp_path, split):
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30)
        assert main(TestRandomPool.command("gen-cot", config)) == 0
        split.clear()
        assert main(TestRandomPool.command("ablate", config)) == 0
        assert split == ["test.jsonl", "train.jsonl"]

    def test_stage_that_builds_the_index_splits_the_pool_once(self, tmp_path, split):
        config, _, _ = build_env(tmp_path, n_test=4, n_pool=30)
        assert main(TestRandomPool.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert split == ["test.jsonl", "train.jsonl"]


class TestUnembeddableQuestion:
    """A question with no token for the builtin provider fails with exit 2,
    named by its pool line or its test item."""

    def test_index_names_the_pool_file_and_line(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path, n_pool=30)
        edit_pool_line(tmp_path, 6, lambda obj: {**obj, "question": "Τι νεύρο;"})
        for command in ("index", "gen-cot"):
            assert main(TestRandomPool.command(command, config)) == 2
            err = capsys.readouterr().err
            assert "train.jsonl: line 7: train-00006: cannot embed empty text" in err

    def test_knn_stage_names_the_test_item(self, tmp_path, capsys):
        config, test_items, _ = build_env(tmp_path, n_pool=30)
        test_items[2] = replace(test_items[2], question="Τι νεύρο;")
        write_normalized(test_items, tmp_path / "corpus" / "medqa" / "test.jsonl")
        assert main(TestRandomPool.command("index", config)) == 0
        assert main(TestRandomPool.command("run", config, "--stage", "knn_fewshot_cot")) == 2
        assert "error: test-00002: cannot embed empty text" in capsys.readouterr().err


class TestExplanationWords:
    """Each exemplar counts its explanation's words once, when it is made;
    token budgets sum those counts and split no explanation again."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """The text of each explanation from the teacher or the cache file,
        once per time it is split."""
        texts = []

        class Counted(str):
            def split(self, *args, **kwargs):
                texts.append(str(self))
                return super().split(*args, **kwargs)

        extract, entry = teacher.extract_explanation, teacher._cache_entry
        monkeypatch.setattr(teacher, "extract_explanation", lambda text: Counted(extract(text)))
        monkeypatch.setattr(teacher, "_cache_entry",
                            lambda row: (*entry(row)[:2], Counted(entry(row)[2])))
        return texts

    def test_ladder_splits_each_explanation_at_most_once_per_command(self, tmp_path, splits):
        config, _, _ = build_env(tmp_path, n_test=8, n_pool=30)
        ablate = TestRandomPool.command("ablate", config)
        # A cold cache: the teacher gives the explanations; then a warm one.
        for _ in range(2):
            splits.clear()
            assert main(ablate) == 0
            assert splits and len(splits) == len(set(splits))
            shutil.rmtree(tmp_path / "out")


class TestCotCacheHandle:
    """A command appends to the CoT cache through one handle, closed when it
    ends, and writes the bytes one open per row would."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """The CoT cache files `corpus.py` opens for appending, in order.
        Every cache a command makes is kept alive, so its handle is closed
        only if the command closes it, not by the garbage collector."""
        files, caches = [], []
        init = teacher.CotCache.__init__

        def spy(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if Path(file).parent.name == "cot" and "a" in mode:
                files.append(f)
            return f

        def keep(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            caches.append(cache)

        monkeypatch.setattr(corpus, "open", spy, raising=False)
        monkeypatch.setattr(teacher.CotCache, "__init__", keep)
        yield files
        for cache in caches:
            cache.close()

    def test_gen_cot_opens_the_cache_once(self, tmp_path, opened):
        config, _, _ = build_env(tmp_path, n_test=8, n_pool=30)
        assert main(TestRandomPool.command("gen-cot", config)) == 0
        [path] = (tmp_path / "cache" / "cot").glob("*.jsonl")
        assert len(path.read_bytes().splitlines()) > 1
        assert len(opened) == 1 and opened[0].closed

    def test_one_handle_writes_the_bytes_of_one_open_per_put(self, tmp_path, monkeypatch,
                                                              opened):
        def cache_bytes(root):
            config, _, _ = build_env(root, n_test=8, n_pool=30)
            assert main(TestRandomPool.command("ablate", config)) == 0
            [path] = (root / "cache" / "cot").glob("*.jsonl")
            return path.read_bytes()

        kept = cache_bytes(tmp_path / "kept")
        assert len(opened) == 1
        put = teacher.CotCache.put

        def put_and_close(cache, item, line, explanation):
            exemplar = put(cache, item, line, explanation)
            cache.close()
            return exemplar

        monkeypatch.setattr(teacher.CotCache, "put", put_and_close)
        assert cache_bytes(tmp_path / "each") == kept
        assert len(opened) == 1 + kept.count(b"\n")
        assert all(f.closed for f in opened)

    def test_interrupted_command_closes_the_cache(self, tmp_path, monkeypatch, opened):
        config, _, _ = build_env(tmp_path, n_test=8, n_pool=30)

        class InterruptedTeacher(RecordingEndpoint):
            def complete(self, request):
                if len(self.requests) == 3:
                    raise KeyboardInterrupt
                return super().complete(request)

        wrap_endpoint(monkeypatch, "teacher-x", InterruptedTeacher)
        assert main(TestRandomPool.command("gen-cot", config)) == 130
        [path] = (tmp_path / "cache" / "cot").glob("*.jsonl")
        assert len(path.read_bytes().splitlines()) == 3
        assert len(opened) == 1 and opened[0].closed


class TestClosesEndpoints:
    """Each command closes the HTTP endpoints it opened, also when a call fails."""

    # A target that never answered ends the stage with exit 3, like the others.
    @pytest.mark.parametrize("block, command, extra, code", [
        ("target", "run", ["--stage", "zero_shot"], 3),
        ("teacher", "run", ["--stage", "knn_fewshot_cot"], 3),
        ("teacher", "gen-cot", [], 3),
        ("embedding", "index", [], 3),
    ])
    def test_failed_calls_close_their_endpoint(self, tmp_path, monkeypatch, block, command,
                                               extra, code):
        closed = []
        monkeypatch.setattr(HttpEndpoint, "close", lambda endpoint: closed.append(endpoint))
        config, _, _ = build_env(tmp_path, config_extra={
            block: {"url": "http://127.0.0.1:9", "model": f"{block}-http"},
            "retry": {"max_retries": 0, "backoff_base": 0.0, "backoff_cap": 0.0},
        })
        assert main([command, "--config", str(config), "--dataset", "medqa", *extra]) == code
        assert [endpoint.model_id for endpoint in closed] == [f"{block}-http"]


def presented_texts(prompt):
    """The option texts of a prompt's test question, in presented order."""
    return tuple(text for _, text in parse_prompt_tail(prompt)["options"])


class WaveHandler(BaseHTTPRequestHandler):
    """Completions server whose answer depends on the prompt alone.

    It logs each prompt as its answer is about to be sent, and counts the
    calls in flight and their peak. A presentation
    (option texts in presented order) listed in `server.statuses` gets that
    HTTP status instead; one in `server.quick` is answered without the
    delay. A (question, presentation) pair in `server.hold` waits that many
    seconds instead of the delay. `server.spans` gets each call's
    (question, presentation, start, end) times.
    """

    def do_POST(self):
        server = self.server
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
        tail = parse_prompt_tail(prompt)
        options = tail["options"]
        presented = tuple(text for _, text in options)
        started = time.monotonic()
        with server.lock:
            server.threads.append(threading.current_thread())
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        if presented not in server.quick:
            time.sleep(server.hold.get((tail["question"], presented), server.delay))
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        token, text = options[digest[0] % len(options)]
        answer = ("I cannot tell." if digest[1] % 8 == 0
                  else f"### Explanation: Hashed.\n### Answer: ({token}) {text}")
        status = server.statuses.get(presented, 200)
        body = json.dumps({"choices": [{"text": answer}]}).encode("utf-8")
        with server.lock:
            server.in_flight -= 1
            server.answered.append(prompt)
            server.spans.append((tail["question"], presented, started, time.monotonic()))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


class WaveServer(ThreadingHTTPServer):
    # Room for every call of the stage's call budget to connect at once.
    request_queue_size = 16


@pytest.fixture
def wave_server():
    httpd = WaveServer(("127.0.0.1", 0), WaveHandler)
    httpd.lock = threading.Lock()
    httpd.threads, httpd.answered, httpd.spans = [], [], []
    httpd.in_flight = httpd.peak = 0
    httpd.delay = 0.02
    httpd.statuses, httpd.quick, httpd.hold = {}, set(), {}
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


class TestEnsembleWaves:
    """An ensemble keeps more items open than `concurrency`, each making its runs in order."""

    @staticmethod
    def http_env(tmp_path, server, n_test, n_pool=8, **extra):
        return build_env(tmp_path, n_test=n_test, n_pool=n_pool, config_extra={
            "target": {"url": f"http://127.0.0.1:{server.server_address[1]}",
                       "model": "target-x"},
            "retry": {"max_retries": 0, "backoff_base": 0.0, "backoff_cap": 0.0},
            **extra,
        })

    def test_overlapping_waves_write_the_rows_of_a_sequential_run(self, tmp_path, wave_server):
        config, test_items, _ = self.http_env(tmp_path, wave_server, n_test=8, concurrency=1)
        args = ["run", "--config", str(config), "--dataset", "medqa", "--stage", "ensemble"]
        trace = tmp_path / "out" / "medqa" / "ensemble.trace.jsonl"
        assert main(args) == 0
        sequential = sorted_rows(trace)
        assert wave_server.peak == 1
        trace.unlink()

        def presentation(item, run_index):
            return (item.question,
                    tuple(text for _, text in shuffle_options(item, 0, run_index)[0].options))

        # The later-wave runs of the first two items that have any, where no
        # first-wave run shares their presentation, are held 0.3 s.
        items = {item.id: item for item in test_items}
        held = []
        for row in sequential:
            item = items[row["item_id"]]
            first = {presentation(item, run_index) for run_index in range(3)}
            later = {presentation(item, run["run_index"]) for run in row["per_run"][3:]} - first
            if later and len(held) < 2:
                held.append(later)
        assert len(held) == 2
        wave_server.hold = {key: 0.3 for keys in held for key in keys}
        wave_server.peak = 0
        set_concurrency(config, 2)
        assert main(args) == 0
        assert sorted_rows(trace) == sequential
        # One call budget of concurrency * (5 // 2 + 1), kept full.
        assert wave_server.peak == 2 * 3

        def held_calls(keys):
            return [(start, end) for *key, start, end in wave_server.spans if tuple(key) in keys]

        # While both items wait on a held run, other items' calls are answered.
        both = [(max(start_a, start_b), min(end_a, end_b))
                for start_a, end_a in held_calls(held[0]) for start_b, end_b in held_calls(held[1])]
        both = [(start, end) for start, end in both if start < end]
        assert both
        held_questions = {question for keys in held for question, _ in keys}
        assert any(start < answered < end
                   for question, _, _, answered in wave_server.spans
                   if question not in held_questions for start, end in both)

    def test_teacher_calls_stay_within_concurrency(self, tmp_path, monkeypatch, wave_server):
        # No gen-cot ran, so every item's exemplars ask the teacher.
        config, _, _ = self.http_env(tmp_path, wave_server, n_test=12, n_pool=30,
                                     concurrency=2)
        teacher = SlowEndpoint()
        wrap_endpoint(monkeypatch, "teacher-x", teacher)
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "ensemble"]) == 0
        assert teacher.most <= 2

    # Runs 1 and 2 would fail; only the runs named are answered without the
    # delay. Whether or not run 1 fails at once, the item raises on run 1's
    # failure and never sends run 2.
    @pytest.mark.parametrize("quick", [(0, 2), (0, 1)],
                             ids=["higher-run-fails-first", "wave-outlives-the-failure"])
    def test_failed_run_in_a_wave_ends_the_stage_after_the_whole_wave(self, tmp_path, capsys,
                                                                     monkeypatch, wave_server,
                                                                     quick):
        config, test_items, _ = self.http_env(tmp_path, wave_server, n_test=1,
                                              concurrency=2, max_validity_tries=1)
        [item] = test_items
        presentations = [tuple(text for _, text in shuffle_options(item, 0, run_index)[0].options)
                         for run_index in range(3)]
        assert len(set(presentations)) == 3
        wave_server.statuses = {presentations[1]: 500, presentations[2]: 503}
        wave_server.quick = {presentations[run_index] for run_index in quick}
        wave_server.delay = 0.05
        answered_at_raise = []
        answer_stage_item = runner.answer_stage_item

        def spy(*args, **kwargs):
            try:
                return answer_stage_item(*args, **kwargs)
            except EndpointError:
                answered_at_raise.append(sorted(map(presented_texts, wave_server.answered)))
                raise

        monkeypatch.setattr(runner, "answer_stage_item", spy)
        threads = threading.active_count()
        code = main(["run", "--config", str(config), "--dataset", "medqa", "--stage", "ensemble"])
        assert answered_at_raise == [sorted(presentations[:2])]
        for thread in wave_server.threads:
            thread.join(timeout=5)
        assert threading.active_count() == threads
        assert presentations[2] not in map(presented_texts, wave_server.answered)
        assert code == 3
        err = capsys.readouterr().err
        assert f"{item.id}: all 1 tries failed" in err and "status 500" in err
        trace = tmp_path / "out" / "medqa" / "ensemble.trace.jsonl"
        assert not trace.exists() or trace.read_text(encoding="utf-8") == ""

    def test_in_process_target_gets_the_same_call_budget(self, tmp_path, monkeypatch):
        config, _, _ = build_env(tmp_path, n_test=12, config_extra={"concurrency": 2})
        command = ["--config", str(config), "--dataset", "medqa"]
        assert main(["gen-cot", *command]) == 0
        target = SlowEndpoint()
        wrap_endpoint(monkeypatch, "target-x", target)
        assert main(["run", *command, "--stage", "ensemble"]) == 0
        # One call budget of concurrency * (5 // 2 + 1), whatever the transport.
        assert target.most == 2 * 3

    def test_in_process_target_makes_runs_in_order(self, tmp_path):
        # The first ask of a presentation gets a wrong answer, a repeat the
        # right one: an item whose runs share a presentation has rows that
        # depend on which of them is asked first.
        config, test_items, _ = build_env(tmp_path, n_test=8)
        policy = tmp_path / "flaky.json"
        policy.write_text(json.dumps({
            "policy": "flaky_gold", "answers": {it.question: it.gold_text for it in test_items},
            "fail_questions": [it.question for it in test_items], "n_wrong": 1,
        }), encoding="utf-8")
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        doc["target"]["url"] = f"mock:{policy}"
        config.write_text(yaml.safe_dump(doc), encoding="utf-8")
        args = ["run", "--config", str(config), "--dataset", "medqa", "--stage", "ensemble"]
        trace = tmp_path / "out" / "medqa" / "ensemble.trace.jsonl"
        rows = {}
        for concurrency in (1, 4):
            set_concurrency(config, concurrency)
            assert main(args) == 0
            rows[concurrency] = sorted_rows(trace)
            trace.unlink()
        assert rows[4] == rows[1]
        assert any(len({json.dumps(run["permutation"], sort_keys=True)
                        for run in row["per_run"]}) < len(row["per_run"])
                   for row in rows[1])


class TestLazyHttpImport:
    def test_mock_stage_loads_no_http_client(self, tmp_path):
        """A run against `mock:` endpoints never imports the HTTP or TLS modules.

        It runs in a fresh interpreter, because pytest's own process has
        already imported `http.server`.
        """
        config, _, _ = build_env(tmp_path)
        script = (
            "import sys\n"
            "from medharness import cli\n"
            f"code = cli.main(['run', '--config', {str(config)!r}, '--dataset', 'medqa',"
            " '--stage', 'ensemble'])\n"
            "print(code, sorted(m for m in ('http.client', 'ssl', 'requests') if m in sys.modules))\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []"
