"""Command-line flows against an in-process scripted endpoint."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from conftest import make_item
from medharness import cli, corpus, teacher
from medharness.cli import main
from medharness.corpus import CorpusFile, Split, write_normalized
from medharness.errors import DataError
from medharness.modelgw import HttpEndpoint
from medharness.retrieval import VectorIndex
from medharness.teacher import teacher_fingerprint


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


def trace_rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def loads(monkeypatch):
    """Names of the files `corpus.read_normalized` parses, in call order."""
    names = []
    read_normalized = corpus.read_normalized

    def spy(path):
        names.append(Path(path).name)
        return read_normalized(path)

    monkeypatch.setattr(corpus, "read_normalized", spy)
    return names


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
        assert all(len(r["per_run"]) == 5 for r in ensemble_rows)

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

    def test_n_fewshot_other_than_5_is_config_error(self, tmp_path, capsys):
        config, _, _ = build_env(tmp_path, config_extra={"n_fewshot": 3})
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert "n_fewshot must be 5" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"ensemble": {"temperature": float("nan")}}, "temperature"),
        ({"ensemble": {"temperature": float("inf")}}, "temperature"),
        ({"retry": {"backoff_base": float("nan")}}, "backoff_base"),
        ({"retry": {"backoff_cap": float("inf")}}, "backoff_cap"),
        ({"target": {"url": "mock:unused.json", "model": "m", "timeout": float("nan")}},
         "timeout"),
        ({"teacher": {"url": "mock:unused.json", "model": "m", "timeout": -float("inf")}},
         "timeout"),
    ])
    def test_non_finite_config_float_is_config_error(self, tmp_path, capsys, extra, key):
        config, _, _ = build_env(tmp_path, config_extra=extra)
        code = main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "zero_shot"])
        assert code == 1
        assert f"{key} must be a finite number" in capsys.readouterr().err

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

    def test_ablate_ranks_each_item_once(self, tmp_path, ranked, loads):
        config, test_items, _ = build_env(tmp_path, n_test=20, n_pool=30)
        assert main(["ablate", "--config", str(config), "--dataset", "medqa"]) == 0
        assert sorted(ranked) == sorted(item.id for item in test_items)
        assert sorted(loads) == ["test.jsonl", "train.jsonl"]

    def test_run_reads_each_split_once(self, tmp_path, loads):
        config, _, _ = build_env(tmp_path)
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot"]) == 0
        assert sorted(loads) == ["test.jsonl", "train.jsonl"]

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
        config, test_items, _ = build_env(tmp_path, n_test=40, n_pool=30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = main(["run", "--config", str(config), "--dataset", "medqa",
                         "--stage", "knn_fewshot_cot", "--concurrency", "8"])
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
        config, _, _ = build_env(tmp_path, n_test=8, n_pool=30)
        teacher_endpoint = cli._teacher_endpoint
        in_flight, most = [0], [0]
        lock = threading.Lock()

        class SlowTeacher:
            def __init__(self, endpoint):
                self.endpoint = endpoint
                self.model_id = endpoint.model_id

            def complete(self, request):
                with lock:
                    in_flight[0] += 1
                    most[0] = max(most[0], in_flight[0])
                time.sleep(0.02)
                try:
                    return self.endpoint.complete(request)
                finally:
                    with lock:
                        in_flight[0] -= 1

        monkeypatch.setattr(cli, "_teacher_endpoint",
                            lambda config: SlowTeacher(teacher_endpoint(config)))
        assert main(["run", "--config", str(config), "--dataset", "medqa",
                     "--stage", "knn_fewshot_cot", "--concurrency", "4"]) == 0
        assert most[0] > 1

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
        teacher_endpoint, scan_jsonl = cli._teacher_endpoint, teacher.scan_jsonl

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

        def scan_spy(path, corrupt):
            seen["cache_reads"].append(Path(path).name)
            return scan_jsonl(path, corrupt)

        monkeypatch.setattr(VectorIndex, "rank_all", rank_spy)
        monkeypatch.setattr(VectorIndex, "nearest_many", nearest_spy)
        monkeypatch.setattr(cli, "_teacher_endpoint",
                            lambda config: CountingTeacher(teacher_endpoint(config)))
        monkeypatch.setattr(teacher, "scan_jsonl", scan_spy)
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

    def test_listed_item_with_an_uncached_exemplar_is_ranked_again(self, tmp_path, spies):
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
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        # The first item needing the dropped exemplar ranks and verifies it
        # again; that puts it back in the cache for the items after it.
        assert spies["ranked"] == [first_user]
        assert len(spies["teacher"]) == 1
        assert self.prompts(tmp_path) == self.run_alone(tmp_path / "alone")

    @pytest.mark.parametrize("field, value", [
        ("pool_sha256", "0" * 64), ("teacher", "0" * 16), ("k_neighbors", 7),
        ("test_sha256", "0" * 64), ("provider_id", "remote:other"),
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
        assert header["schema"] == 3
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
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 2
        assert "pool overlaps test split on 1 ids" in capsys.readouterr().err

    def test_run_reads_only_the_test_split(self, tmp_path, loads):
        config, _, _ = self.indexed(tmp_path)
        loads.clear()
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert loads == ["test.jsonl"]

    def test_ablate_reads_the_pool_file_once(self, tmp_path, monkeypatch, loads):
        config, _, _ = self.indexed(tmp_path)
        loads.clear()
        reads = []
        init = CorpusFile.__init__

        def init_spy(source, path):
            reads.append(Path(path).name)
            init(source, path)

        monkeypatch.setattr(CorpusFile, "__init__", init_spy)
        assert main(self.command("ablate", config)) == 0
        assert sorted(reads) == sorted(loads) == ["test.jsonl", "train.jsonl"]

    def test_run_parses_only_ranked_candidates(self, tmp_path, monkeypatch):
        config, _, _ = self.indexed(tmp_path, n_test=8, n_pool=60)
        parsed, candidates = [], set()
        parse, nearest_many = CorpusFile.parse, VectorIndex.nearest_many

        def parse_spy(source, i):
            if source.path.name == "train.jsonl":
                parsed.append(i)
            return parse(source, i)

        def nearest_spy(index, queries, k):
            for neighbor_set in nearest_many(index, queries, k):
                candidates.update(neighbor_set.ids)
                yield neighbor_set

        monkeypatch.setattr(CorpusFile, "parse", parse_spy)
        monkeypatch.setattr(VectorIndex, "nearest_many", nearest_spy)
        assert main(self.command("run", config, "--stage", "knn_fewshot_cot")) == 0
        assert len(set(parsed)) == len(parsed) <= len(candidates) < 60

    def test_concurrent_run_builds_the_same_prompts(self, tmp_path):
        def prompts(root, concurrency):
            config, _, _ = self.indexed(root, n_test=40, n_pool=30)
            assert main(self.command("run", config, "--stage", "knn_fewshot_cot",
                                     "--concurrency", concurrency)) == 0
            rows = trace_rows(root / "out" / "medqa" / "knn_fewshot_cot.trace.jsonl")
            return {row["item_id"]: row["per_run"][0]["prompt_sha256"] for row in rows}

        serial = prompts(tmp_path / "serial", "1")
        assert len(set(serial.values())) == 40
        assert prompts(tmp_path / "concurrent", "8") == serial


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
