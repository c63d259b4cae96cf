"""Generation loops, ensemble voting, and trace/checkpoint semantics."""

import hashlib
import json
import time

import pytest

import golden_data as gd
from conftest import make_item
from medharness.errors import ConfigError, DataError, EndpointError
from medharness.modelgw import (
    GarbagePolicy,
    GenerationResponse,
    GoldAnswerPolicy,
    SequencePolicy,
    mock_model,
    parse_prompt_tail,
)
from medharness.parsing import INVALID
from medharness.promptkit import Strategy, assemble_prompt, shuffle_options
from medharness.runner import (
    LADDER,
    EnsembleConfig,
    Stage,
    aggregate_votes,
    answer_item,
    answer_item_ensemble,
    read_trace,
    run_benchmark,
)

KNN_EXEMPLARS = [gd.exemplar(i, cot=True) for i in gd.KNN_ORDER]


def gold_endpoint(*item_groups):
    answers = {}
    for group in item_groups:
        for item in group:
            answers[item.question] = item.gold_text
    return mock_model(GoldAnswerPolicy(answers))


class OutagePolicy:
    """Fail the given calls (0-based, counted over all prompts) in transport;
    answer the others with `policy`."""

    def __init__(self, policy, failing_calls):
        self.policy = policy
        self.failing_calls = set(failing_calls)
        self.calls = 0

    def __call__(self, request, n):
        call, self.calls = self.calls, self.calls + 1
        if call in self.failing_calls:
            raise EndpointError(f"mock endpoint: outage on call {call}")
        return self.policy(request, n)


class TestStage:
    def test_ladder_order(self):
        assert [s.value for s in LADDER] == [
            "zero_shot", "random_fewshot", "random_fewshot_cot",
            "knn_fewshot_cot", "ensemble",
        ]

    def test_ensemble_reuses_strongest_prompt(self):
        assert Stage.ENSEMBLE.strategy is Strategy.KNN_FEWSHOT_COT
        assert Stage.ENSEMBLE.is_ensemble
        assert not Stage.ZERO_SHOT.is_ensemble
        assert Stage.ZERO_SHOT.strategy is Strategy.ZERO_SHOT


class TestAggregateVotes:
    def test_unanimous(self):
        assert aggregate_votes(["B", "B", "B", "B", "B"]) == ("B", False)

    def test_majority(self):
        assert aggregate_votes(["A", "C", "A", "B", "A"]) == ("A", False)

    def test_tie_breaks_toward_earliest_tied_run(self):
        assert aggregate_votes(["B", "A", "A", "B", INVALID]) == ("B", True)

    def test_tie_skips_non_tied_earlier_runs(self):
        # C holds run 0 but is not among the tied top labels.
        assert aggregate_votes(["C", "A", "B", "A", "B"]) == ("A", True)

    def test_invalid_runs_are_not_votes(self):
        assert aggregate_votes([INVALID, "C", INVALID, "C", "A"]) == ("C", False)

    def test_all_invalid(self):
        assert aggregate_votes([INVALID] * 5) == (INVALID, False)
        assert aggregate_votes([]) == (INVALID, False)

    def test_single_run(self):
        assert aggregate_votes(["D"]) == ("D", False)


class RecordingEndpoint:
    """Captures every request; answers from a canned response text."""

    def __init__(self, text, model_id="recorded"):
        self.text = text
        self.model_id = model_id
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return GenerationResponse(text=self.text, finish_reason="stop",
                                  usage={}, latency=0.0)


class TestAnswerItem:
    def test_gold_zero_shot(self):
        endpoint = gold_endpoint([gd.TEST_ITEM])
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint)
        assert run.decision == "B"
        assert run.presented == "B"
        assert run.tries == 1
        assert run.transport_errors == 0
        assert run.permutation == {"A": "A", "B": "B", "C": "C", "D": "D"}
        expected = assemble_prompt(Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                                   [], gd.TEST_ITEM).text
        assert run.prompt_sha256 == hashlib.sha256(expected.encode("utf-8")).hexdigest()

    def test_unparseable_output_is_retried(self):
        endpoint = mock_model(SequencePolicy([
            "no idea", "still thinking",
            "### Answer: (B) Patellofemoral cartilage",
        ]))
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint)
        assert run.decision == "B"
        assert run.tries == 3
        assert endpoint.call_count == 3

    def test_garbage_exhausts_tries(self):
        endpoint = mock_model(GarbagePolicy())
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint)
        assert run.decision == INVALID
        assert run.presented == INVALID
        assert run.tries == 5
        assert endpoint.call_count == 5
        assert "unable" in run.raw_text

    def test_transport_failures_count_as_tries(self):
        # Every try failed in transport: no answer to score, the error is raised.
        endpoint = mock_model(GoldAnswerPolicy({}))
        with pytest.raises(EndpointError, match="test-00000: all 5 tries failed"):
            answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], endpoint)
        assert endpoint.call_count == 5
        # Transport failures mixed with unparseable answers stay invalid.
        endpoint = mock_model(OutagePolicy(GarbagePolicy(), failing_calls={0, 2, 3}))
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint)
        assert run.decision == INVALID
        assert run.tries == 5
        assert run.transport_errors == 3
        assert "unable" in run.raw_text
        # They count as tries before an answer that parses.
        endpoint = mock_model(OutagePolicy(gold_endpoint([gd.TEST_ITEM]).policy, {0, 1}))
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint)
        assert (run.decision, run.tries, run.transport_errors) == ("B", 3, 2)

    def test_shuffled_answer_maps_back_to_canonical(self):
        endpoint = gold_endpoint([gd.TEST_ITEM])
        run = answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                          [], endpoint, run_index=gd.SHUFFLE_RUN, shuffle=True,
                          seed=gd.SHUFFLE_SEED)
        assert run.permutation == gd.SHUFFLED_RUN3_PERMUTATION
        assert run.presented == gd.SHUFFLED_RUN3_PERMUTATION["B"]
        assert run.decision == "B"

    def test_request_wiring_answer_only(self):
        endpoint = RecordingEndpoint("### Answer: (B) Patellofemoral cartilage")
        answer_item(gd.TEST_ITEM, Strategy.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                    [], endpoint, temperature=0.0, request_seed=42)
        [request] = endpoint.requests
        assert request.model_id == "recorded"
        assert request.temperature == 0.0
        assert request.max_tokens == 32
        assert request.stop_sequences == ("\n### Question:",)
        assert request.seed == 42

    def test_request_wiring_cot_budget(self):
        endpoint = RecordingEndpoint(
            "### Explanation: why\n### Answer: (B) Patellofemoral cartilage")
        answer_item(gd.TEST_ITEM, Strategy.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION,
                    KNN_EXEMPLARS, endpoint)
        [request] = endpoint.requests
        assert request.max_tokens >= 256
        assert request.prompt.endswith("### Explanation:")


class ScriptedVotePolicy:
    """Answer each ensemble run per a canonical-label script.

    Runs are recognized by their presented option order, so the script is
    keyed by the permutation the shuffler will produce.
    """

    def __init__(self, item, seed, script):
        self.script = list(script)
        self.by_options = {}
        for run_index in range(len(script)):
            presented, _ = shuffle_options(item, seed, run_index)
            key = tuple(presented.options)
            assert key not in self.by_options, "permutation collision; pick another seed"
            self.by_options[key] = run_index
        self.canonical_text = dict(item.options)

    def __call__(self, request, occurrence):
        parts = parse_prompt_tail(request.prompt)
        run_index = self.by_options[tuple(parts["options"])]
        want = self.script[run_index]
        if want is None:
            return "I cannot answer this one."
        text = self.canonical_text[want]
        for token, opt_text in parts["options"]:
            if opt_text == text:
                return f"### Explanation: scripted.\n### Answer: ({token}) {opt_text}"
        raise AssertionError("gold text missing from presented options")


class TestEnsemble:
    def test_unanimous_gold_under_shuffles(self):
        endpoint = gold_endpoint([gd.TEST_ITEM], gd.POOL_ITEMS)
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0)
        assert result.correct
        assert result.decision == "B"
        assert not result.tie_broken
        assert len(result.per_run) == 5
        assert result.n_calls == 5
        permutations = {tuple(sorted(r.permutation.items())) for r in result.per_run}
        assert len(permutations) == 5
        assert [r.run_index for r in result.per_run] == [0, 1, 2, 3, 4]

    def test_scripted_majority(self):
        script = ["C", "B", "C", "B", "C"]
        endpoint = mock_model(ScriptedVotePolicy(gd.TEST_ITEM, 0, script))
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0)
        assert [r.decision for r in result.per_run] == script
        assert result.decision == "C"
        assert not result.tie_broken
        assert not result.correct

    def test_scripted_tie_breaks_to_earliest(self):
        script = ["C", "B", "B", "C", None]
        endpoint = mock_model(ScriptedVotePolicy(gd.TEST_ITEM, 0, script))
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0)
        assert [r.decision for r in result.per_run] == ["C", "B", "B", "C", INVALID]
        assert result.decision == "C"
        assert result.tie_broken

    def test_invalid_runs_excluded_from_vote(self):
        script = [None, None, None, "B", None]
        endpoint = mock_model(ScriptedVotePolicy(gd.TEST_ITEM, 0, script))
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0)
        assert result.decision == "B"
        assert result.correct
        assert not result.tie_broken
        # Four invalid runs burned the full validity budget each.
        assert result.n_calls == 4 * 5 + 1

    def test_all_runs_invalid(self):
        endpoint = mock_model(GarbagePolicy())
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0)
        assert result.decision == INVALID
        assert not result.correct
        assert result.n_calls == 25

    def test_run_count_configurable(self):
        endpoint = gold_endpoint([gd.TEST_ITEM], gd.POOL_ITEMS)
        result = answer_item_ensemble(gd.TEST_ITEM, gd.MEDQA_INSTRUCTION,
                                      KNN_EXEMPLARS, endpoint, seed=0,
                                      ensemble=EnsembleConfig(n_runs=3))
        assert len(result.per_run) == 3

    def test_rejects_zero_runs(self):
        with pytest.raises(ConfigError, match="at least one run"):
            EnsembleConfig(n_runs=0)


@pytest.fixture
def bench_items():
    return [make_item(i, question=f"Bench question number {i}?", gold="C")
            for i in range(6)]


def no_exemplars(item):
    return []


class TestRunBenchmark:
    def test_fresh_run_writes_all_rows_in_item_order(self, bench_items, tmp_path):
        trace = tmp_path / "out" / "zero_shot.trace.jsonl"
        endpoint = gold_endpoint(bench_items)
        rows = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                             gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        assert [r["item_id"] for r in rows] == [it.id for it in bench_items]
        assert all(r["correct"] for r in rows)
        assert all(r["stage"] == "zero_shot" and r["schema"] == 1 for r in rows)
        on_disk = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(on_disk) == 6

    def test_partial_trace_without_resume_is_an_error(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        endpoint = gold_endpoint(bench_items)
        run_benchmark(bench_items[:3], Stage.ZERO_SHOT, endpoint,
                      gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        with pytest.raises(ConfigError, match="resume the run or remove the trace"):
            run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                          gd.MEDQA_INSTRUCTION, no_exemplars, trace)

    def test_resume_skips_completed_items(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        endpoint = gold_endpoint(bench_items)
        run_benchmark(bench_items[:3], Stage.ZERO_SHOT, endpoint,
                      gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        assert endpoint.call_count == 3
        rows = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                             gd.MEDQA_INSTRUCTION, no_exemplars, trace, resume=True)
        assert endpoint.call_count == 6
        assert [r["item_id"] for r in rows] == [it.id for it in bench_items]

    @pytest.mark.parametrize("stage", [Stage.ZERO_SHOT, Stage.ENSEMBLE])
    def test_transport_failure_writes_no_row_and_resume_asks_again(self, bench_items,
                                                                  tmp_path, stage):
        # Items 0-1 are answered; every try of item 2 (of its first run, for
        # the ensemble) fails in transport.
        trace = tmp_path / "trace.jsonl"
        answered = 2 * (5 if stage.is_ensemble else 1)
        endpoint = mock_model(OutagePolicy(gold_endpoint(bench_items).policy,
                                           range(answered, answered + 5)))
        exemplars_for = (lambda item: KNN_EXEMPLARS) if stage.is_ensemble else no_exemplars
        with pytest.raises(EndpointError, match=f"{bench_items[2].id}: all 5 tries failed"):
            run_benchmark(bench_items, stage, endpoint, gd.MEDQA_INSTRUCTION,
                          exemplars_for, trace, seed=gd.SHUFFLE_SEED)
        assert [r["item_id"] for r in read_trace(trace)] == [it.id for it in bench_items[:2]]
        rows = run_benchmark(bench_items, stage, endpoint, gd.MEDQA_INSTRUCTION,
                             exemplars_for, trace, seed=gd.SHUFFLE_SEED, resume=True)
        assert [r["item_id"] for r in rows] == [it.id for it in bench_items]
        assert all(r["correct"] and r["n_calls"] == answered // 2 for r in rows)
        assert read_trace(trace) == rows

    def test_complete_trace_is_a_noop(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        endpoint = gold_endpoint(bench_items)
        first = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                              gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        calls = endpoint.call_count
        again = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                              gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        assert endpoint.call_count == calls
        assert again == first

    def test_stage_mismatch_is_an_error(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        endpoint = gold_endpoint(bench_items)
        run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                      gd.MEDQA_INSTRUCTION, no_exemplars, trace)
        with pytest.raises(ConfigError, match="trace holds stage 'zero_shot'"):
            run_benchmark(bench_items, Stage.RANDOM_FEWSHOT, endpoint,
                          gd.MEDQA_INSTRUCTION, no_exemplars, trace, resume=True)

    def test_corrupt_trace_row_is_an_error(self, tmp_path, bench_items):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"stage": "zero_shot", "item_id": "x"}\nnot json\n')
        with pytest.raises(ConfigError, match="corrupt trace row"):
            run_benchmark(bench_items, Stage.ZERO_SHOT, gold_endpoint(bench_items),
                          gd.MEDQA_INSTRUCTION, no_exemplars, trace, resume=True)

    def test_read_trace_missing_file(self, tmp_path):
        assert read_trace(tmp_path / "absent.jsonl") == []

    def test_progress_called_per_new_item(self, bench_items, tmp_path):
        seen = []
        run_benchmark(bench_items, Stage.ZERO_SHOT, gold_endpoint(bench_items),
                      gd.MEDQA_INSTRUCTION, no_exemplars, tmp_path / "t.jsonl",
                      progress=seen.append)
        assert sorted(r["item_id"] for r in seen) == [it.id for it in bench_items]

    def test_concurrent_run_stays_correct(self, tmp_path):
        items = [make_item(i, question=f"Parallel question number {i}?", gold="D")
                 for i in range(16)]
        trace = tmp_path / "trace.jsonl"
        rows = run_benchmark(items, Stage.ZERO_SHOT, gold_endpoint(items),
                             gd.MEDQA_INSTRUCTION, no_exemplars, trace, concurrency=4)
        assert [r["item_id"] for r in rows] == [it.id for it in items]
        assert all(r["correct"] for r in rows)
        on_disk = [json.loads(line) for line in trace.read_text().splitlines()]
        assert sorted(r["item_id"] for r in on_disk) == [it.id for it in items]

    def test_first_error_stops_scheduling_items(self, tmp_path):
        items = [make_item(i, question=f"Parallel question number {i}?", gold="D")
                 for i in range(40)]
        endpoint = gold_endpoint(items)

        def provider(item):
            time.sleep(0.005)
            if item is items[4]:
                raise DataError("pool exhausted")
            return []

        with pytest.raises(DataError, match="pool exhausted"):
            run_benchmark(items, Stage.ZERO_SHOT, endpoint, gd.MEDQA_INSTRUCTION, provider,
                          tmp_path / "trace.jsonl", concurrency=2)
        assert endpoint.call_count < 10

    def test_ensemble_stage_end_to_end(self, tmp_path):
        items = [gd.TEST_ITEM]
        endpoint = gold_endpoint(items, gd.POOL_ITEMS)
        rows = run_benchmark(items, Stage.ENSEMBLE, endpoint, gd.MEDQA_INSTRUCTION,
                             lambda item: KNN_EXEMPLARS, tmp_path / "e.jsonl", seed=0)
        [row] = rows
        assert row["stage"] == "ensemble"
        assert row["correct"]
        assert len(row["per_run"]) == 5
        assert row["n_calls"] == 5
        assert {r["run_index"] for r in row["per_run"]} == {0, 1, 2, 3, 4}

    def test_fewshot_stage_uses_exemplars(self, bench_items, tmp_path):
        pool_exemplars = [gd.exemplar(i, cot=False) for i in gd.RANDOM_ORDER]
        endpoint = gold_endpoint(bench_items, gd.POOL_ITEMS)
        rows = run_benchmark(bench_items, Stage.RANDOM_FEWSHOT, endpoint,
                             gd.MEDQA_INSTRUCTION, lambda item: pool_exemplars,
                             tmp_path / "fs.jsonl")
        assert all(r["correct"] for r in rows)
        assert all(r["stage"] == "random_fewshot" for r in rows)


class TestTornTrace:
    """A crash mid-append leaves a partial last line; resume must get past it."""

    def write_rows(self, bench_items, trace, n):
        run_benchmark(bench_items[:n], Stage.ZERO_SHOT, gold_endpoint(bench_items),
                      gd.MEDQA_INSTRUCTION, no_exemplars, trace)

    def test_partial_last_line_is_skipped(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self.write_rows(bench_items, trace, 3)
        whole = trace.read_bytes()
        trace.write_bytes(whole + whole.splitlines(keepends=True)[0][:25])
        assert [r["item_id"] for r in read_trace(trace)] == [it.id for it in bench_items[:3]]

    def test_partial_multibyte_last_line_is_skipped(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        row = json.dumps({"item_id": "x", "raw_text": "ß"}, ensure_ascii=False).encode("utf-8")
        trace.write_bytes(row + b"\n" + row[:row.index("ß".encode("utf-8")) + 1])
        assert read_trace(trace) == [{"item_id": "x", "raw_text": "ß"}]

    def test_resume_after_torn_line_completes_the_stage(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self.write_rows(bench_items, trace, 3)
        with open(trace, "ab") as f:
            f.write(b'{"item_id": "test-00003", "sta')
        endpoint = gold_endpoint(bench_items)
        rows = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                             gd.MEDQA_INSTRUCTION, no_exemplars, trace, resume=True)
        assert endpoint.call_count == 3
        assert [r["item_id"] for r in rows] == [it.id for it in bench_items]
        assert read_trace(trace) == rows

    def test_complete_last_row_without_newline_is_kept(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self.write_rows(bench_items, trace, 3)
        trace.write_bytes(trace.read_bytes().rstrip(b"\n"))
        endpoint = gold_endpoint(bench_items)
        rows = run_benchmark(bench_items, Stage.ZERO_SHOT, endpoint,
                             gd.MEDQA_INSTRUCTION, no_exemplars, trace, resume=True)
        assert endpoint.call_count == 3
        assert read_trace(trace) == rows

    def test_corrupt_line_before_the_end_still_fails(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self.write_rows(bench_items, trace, 3)
        lines = trace.read_bytes().splitlines(keepends=True)
        trace.write_bytes(lines[0] + lines[1][:25] + b"\n" + lines[2])
        with pytest.raises(ConfigError, match=":2: corrupt trace row"):
            read_trace(trace)

    def test_corrupt_last_line_with_newline_still_fails(self, bench_items, tmp_path):
        trace = tmp_path / "trace.jsonl"
        self.write_rows(bench_items, trace, 3)
        trace.write_bytes(trace.read_bytes() + b'{"item_id": "te\n')
        with pytest.raises(ConfigError, match=":4: corrupt trace row"):
            read_trace(trace)
