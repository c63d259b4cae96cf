"""Endpoint wire behavior, retry policy, token budgets, and scripted mocks."""

import hashlib
import json
import math
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import golden_data as gd
from medharness import modelgw
from medharness.config import EndpointConfig, build_endpoint
from medharness.errors import ConfigError, EndpointError
from medharness.modelgw import (
    FlakyGoldPolicy,
    GarbagePolicy,
    GenerationRequest,
    GoldAnswerPolicy,
    HttpEndpoint,
    RetryPolicy,
    StageTablePolicy,
    complete,
    default_max_tokens,
    mock_from_file,
    mock_model,
    parse_prompt_tail,
)
from medharness.promptkit import CotExemplar, Stage, assemble_prompt, teacher_prompt


class ScriptedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.requests.append(
            {"path": self.path, "body": json.loads(body), "headers": dict(self.headers)}
        )
        status, payload = self.server.script[min(len(self.server.requests) - 1,
                                                 len(self.server.script) - 1)]
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if isinstance(payload, (dict, list)):
            self.wfile.write(json.dumps(payload).encode("utf-8"))
        else:
            self.wfile.write(payload.encode("utf-8"))

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    httpd.requests = []
    httpd.script = [(200, completion_body("### Answer: (A) alpha"))]
    httpd.endpoints = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    for endpoint in httpd.endpoints:
        endpoint.close()
    httpd.shutdown()
    httpd.server_close()


def completion_body(text, finish="stop"):
    return {"choices": [{"text": text, "finish_reason": finish}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 5}}


def endpoint_for(server, base_path="", sleep=lambda s: None, **kwargs):
    """An endpoint on `server` whose backoff waits call `sleep`, closed when
    the server fixture ends."""
    kwargs.setdefault("retry", RetryPolicy(max_retries=3, backoff_base=0.0, backoff_cap=0.0))
    endpoint = HttpEndpoint(f"http://127.0.0.1:{server.server_address[1]}{base_path}",
                            "test-model", **kwargs)
    endpoint._sleep = sleep
    server.endpoints.append(endpoint)
    return endpoint


def simple_request(prompt="### Question: q? (A) a (B) b\n### Answer:"):
    return GenerationRequest(
        model_id="test-model", prompt=prompt, temperature=0.0,
        max_tokens=32, stop_sequences=("\n### Question:",), seed=7,
    )


class TestHttpEndpoint:
    def test_wire_shape(self, server, monkeypatch):
        monkeypatch.setenv("TEST_GW_KEY", "sekrit")
        ep = endpoint_for(server, api_key_env="TEST_GW_KEY")
        response = complete(simple_request(), ep)
        assert response.text == "### Answer: (A) alpha"
        assert response.finish_reason == "stop"
        assert response.usage["completion_tokens"] == 5
        assert response.retries == 0
        [req] = server.requests
        assert req["path"] == "/v1/completions"
        assert req["body"] == {
            "model": "test-model",
            "prompt": "### Question: q? (A) a (B) b\n### Answer:",
            "temperature": 0.0,
            "max_tokens": 32,
            "stop": ["\n### Question:"],
            "seed": 7,
        }
        assert req["headers"]["Authorization"] == "Bearer sekrit"

    def test_seed_and_stop_omitted_when_unset(self, server):
        ep = endpoint_for(server)
        request = GenerationRequest(model_id="m", prompt="p", temperature=0.4, max_tokens=8)
        complete(request, ep)
        body = server.requests[0]["body"]
        assert "seed" not in body and "stop" not in body

    def test_429_retried_with_backoff(self, server):
        server.script = [
            (429, {"error": "slow down"}),
            (429, {"error": "slow down"}),
            (200, completion_body("ok")),
        ]
        sleeps = []
        ep = endpoint_for(server, retry=RetryPolicy(max_retries=3, backoff_base=0.25,
                                                    backoff_cap=8.0),
                          sleep=sleeps.append)
        response = complete(simple_request(), ep)
        assert response.text == "ok"
        assert response.retries == 2
        assert sleeps == [0.25, 0.5]
        assert len(server.requests) == 3

    def test_5xx_exhausts_then_fails(self, server):
        server.script = [(503, {"error": "down"})]
        ep = endpoint_for(server, retry=RetryPolicy(max_retries=2, backoff_base=0.0))
        with pytest.raises(EndpointError, match="gave up after 3 attempts"):
            complete(simple_request(), ep)
        assert len(server.requests) == 3

    def test_client_error_not_retried(self, server):
        server.script = [(400, {"error": "bad request"})]
        ep = endpoint_for(server)
        with pytest.raises(EndpointError, match="HTTP 400"):
            complete(simple_request(), ep)
        assert len(server.requests) == 1

    def test_malformed_json_not_retried(self, server):
        server.script = [(200, "this is not json")]
        ep = endpoint_for(server)
        with pytest.raises(EndpointError, match="non-JSON"):
            complete(simple_request(), ep)
        assert len(server.requests) == 1

    def test_missing_choices_is_malformed(self, server):
        server.script = [(200, {"nothing": True})]
        ep = endpoint_for(server)
        with pytest.raises(EndpointError, match="malformed"):
            complete(simple_request(), ep)

    def test_missing_credential_env_fails_fast(self, server, monkeypatch):
        monkeypatch.delenv("TEST_GW_KEY", raising=False)
        with pytest.raises(ConfigError, match="TEST_GW_KEY"):
            endpoint_for(server, api_key_env="TEST_GW_KEY")

    def test_embeddings_ordered_by_index(self, server):
        server.script = [(200, {"data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
        ]})]
        ep = endpoint_for(server)
        vectors = ep.embed_batch(["first", "second"], "embed-model")
        assert vectors == [[1.0, 0.0], [0.0, 1.0]]
        assert server.requests[0]["path"] == "/v1/embeddings"
        assert server.requests[0]["body"] == {"model": "embed-model",
                                              "input": ["first", "second"]}

    def test_embeddings_count_mismatch(self, server):
        server.script = [(200, {"data": [{"index": 0, "embedding": [1.0]}]})]
        ep = endpoint_for(server)
        with pytest.raises(EndpointError, match="1 vectors for 2"):
            ep.embed_batch(["a", "b"], "m")


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 completions server that keeps connections open and counts them.

    A connection idle for `server.idle_timeout` seconds is closed. The first
    `server.truncated` responses are cut short and their connections closed.
    """

    protocol_version = "HTTP/1.1"

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.paths.append(self.path)
            n = len(self.server.paths)
        body = json.dumps(completion_body("ok")).encode("utf-8")
        head = (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        if n <= self.server.truncated:
            self.wfile.write(head + body[:10])
            self.close_connection = True
        else:
            self.wfile.write(head + body)

    def log_message(self, fmt, *args):
        pass


class KeepAliveServer(ThreadingHTTPServer):
    # Room for every test thread to connect at once: a full accept queue
    # can reset a new connection, which the client would count as a retry.
    request_queue_size = 64


@pytest.fixture
def keepalive_server():
    httpd = KeepAliveServer(("127.0.0.1", 0), KeepAliveHandler)
    httpd.lock = threading.Lock()
    httpd.connections = 0
    httpd.paths = []
    httpd.idle_timeout = 5.0
    httpd.truncated = 0
    httpd.closed = 0
    httpd.endpoints = []
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield httpd
    for endpoint in httpd.endpoints:
        endpoint.close()
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


class TestConnections:
    def test_connection_closed_while_idle_is_replaced_without_retry(self, keepalive_server):
        keepalive_server.idle_timeout = 0.05
        sleeps = []
        ep = endpoint_for(keepalive_server, sleep=sleeps.append)
        complete(simple_request(), ep)
        sleeps.clear()
        time.sleep(0.2)
        response = complete(simple_request(), ep)
        assert response.retries == 0
        assert sleeps == []
        assert keepalive_server.connections == 2

    def test_connections_never_outnumber_calls_in_flight(self, keepalive_server):
        ep = endpoint_for(keepalive_server)
        retries, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    retries.append(complete(simple_request(), ep).retries)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert retries == [0] * 320
        assert len(keepalive_server.paths) == 320
        assert 1 <= keepalive_server.connections <= 16

    def test_refused_port_retries_then_gives_up(self):
        with socket.socket() as bound:
            # Bound but never listening, so every connect is refused.
            bound.bind(("127.0.0.1", 0))
            sleeps = []
            ep = HttpEndpoint(f"http://127.0.0.1:{bound.getsockname()[1]}", "m",
                              retry=RetryPolicy(max_retries=2, backoff_base=0.25))
            ep._sleep = sleeps.append
            with pytest.raises(EndpointError, match="gave up after 3 attempts"):
                complete(simple_request(), ep)
        assert sleeps == [0.25, 0.5]

    def test_close_closes_idle_connections(self, keepalive_server):
        # Longer than the wait below, so only the client can close them.
        keepalive_server.idle_timeout = 30.0
        ep = endpoint_for(keepalive_server)
        errors = []

        def worker():
            try:
                for _ in range(5):
                    complete(simple_request(), ep)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and errors == []
        opened = keepalive_server.connections
        assert opened >= 1 and keepalive_server.closed == 0
        ep.close()
        deadline = time.monotonic() + 5
        while keepalive_server.closed < opened and time.monotonic() < deadline:
            time.sleep(0.01)
        assert keepalive_server.closed == opened
        # Still usable: the next call opens a new connection.
        try:
            assert complete(simple_request(), ep).text == "ok"
        finally:
            ep.close()
        assert keepalive_server.connections == opened + 1

    def test_response_cut_short_is_retried(self, keepalive_server):
        keepalive_server.truncated = 1
        sleeps = []
        ep = endpoint_for(keepalive_server, sleep=sleeps.append)
        response = complete(simple_request(), ep)
        assert response.text == "ok"
        assert response.retries == 1
        assert len(sleeps) == 1
        assert keepalive_server.connections == 2

    def test_base_url_path_prefix(self, server):
        for base_path in ("/proxy", "/proxy/"):
            complete(simple_request(), endpoint_for(server, base_path))
        assert [r["path"] for r in server.requests] == ["/proxy/v1/completions"] * 2

    @pytest.mark.parametrize("url", ["infer.example.com/v1", "ftp://infer.example.com",
                                     "http://", "http://127.0.0.1:port"])
    def test_malformed_url_is_config_error(self, url):
        with pytest.raises(ConfigError, match="endpoint URL"):
            HttpEndpoint(url, "m")


class TestRetryPolicy:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.25, backoff_cap=2.0)
        assert [policy.delay(a) for a in range(5)] == [0.25, 0.5, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("attempt", [1023, 1024, 1100, 10**6])
    def test_delay_saturates_at_the_cap_for_any_attempt(self, attempt):
        # `max_retries` takes any integer >= 0, so attempts past a float's
        # largest power of two must still give the cap.
        assert RetryPolicy().delay(attempt) == RetryPolicy().backoff_cap
        assert RetryPolicy(backoff_base=1e-300, backoff_cap=3.0).delay(attempt) == 3.0


class TestRequestValidation:
    def test_rejects_empty_prompt(self):
        with pytest.raises(ConfigError, match="prompt"):
            GenerationRequest(model_id="m", prompt="")

    def test_rejects_negative_temperature(self):
        with pytest.raises(ConfigError, match="temperature"):
            GenerationRequest(model_id="m", prompt="p", temperature=-0.1)

    def test_rejects_nonpositive_max_tokens(self):
        with pytest.raises(ConfigError, match="max_tokens"):
            GenerationRequest(model_id="m", prompt="p", max_tokens=0)


def stub_exemplar(explanation):
    """An unverified exemplar, which may have a blank explanation."""
    return CotExemplar(item=gd.POOL_ITEMS[0], explanation=explanation)


def reference_budget(explanations):
    """The budget sized from the explanation texts, each split here."""
    lengths = [len(text.split()) for text in explanations if text.strip()]
    if not lengths:
        return 32
    return max(256, min(1024, math.ceil(1.5 * (sum(lengths) / len(lengths)))))


class TestDefaultMaxTokens:
    def test_answer_only_budget(self):
        assert default_max_tokens([]) == 32
        assert default_max_tokens([stub_exemplar("")] * 5) == 32

    def test_short_explanations_hit_floor(self):
        exemplars = [stub_exemplar(" ".join(["w"] * 100))] * 5
        assert default_max_tokens(exemplars) == 256

    def test_mid_explanations_scale(self):
        exemplars = [stub_exemplar(" ".join(["w"] * 400))] * 5
        assert default_max_tokens(exemplars) == 600

    def test_long_explanations_hit_ceiling(self):
        exemplars = [stub_exemplar(" ".join(["w"] * 5000))] * 5
        assert default_max_tokens(exemplars) == 1024

    @pytest.mark.parametrize("explanations", [
        ["", " ", "\u2028\t", "\n", ""],
        ["", " ", "one\u2028two", "three  four\tfive", "\n"],
        [" ".join(["w"] * n) for n in (170, 171, 172, 600, 683)],
        [" ".join(["w"] * n) + "\u3000" * n for n in (1, 401, 0, 0, 399)],
        [gd.EXPLANATIONS[item_id] for item_id in gd.KNN_ORDER],
    ])
    def test_budget_from_word_counts_equals_splitting_the_texts(self, explanations):
        exemplars = [stub_exemplar(text) for text in explanations]
        assert [e.word_count for e in exemplars] == [len(t.split()) for t in explanations]
        assert default_max_tokens(exemplars) == reference_budget(explanations)


def knn_prompt(item=None):
    exemplars = [gd.exemplar(i, cot=True) for i in gd.KNN_ORDER]
    return assemble_prompt(
        Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, exemplars, item or gd.TEST_ITEM
    ).text


class TestPromptTailParsing:
    def test_zero_shot_letters(self):
        text = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text
        parts = parse_prompt_tail(text)
        assert parts["question"] == gd.TEST_ITEM.question
        assert parts["options"] == list(gd.TEST_ITEM.options)
        assert StageTablePolicy.exemplar_questions(text) == []
        assert not parts["wants_explanation"]
        assert not parts["is_teacher"]

    def test_fewshot_cot_exemplars_listed(self):
        parts = parse_prompt_tail(knn_prompt())
        assert parts["question"] == gd.TEST_ITEM.question
        assert parts["wants_explanation"]
        assert StageTablePolicy.exemplar_questions(knn_prompt()) == [
            gd.POOL_BY_ID[i].question for i in gd.KNN_ORDER
        ]

    def test_word_options(self):
        text = assemble_prompt(
            Stage.ZERO_SHOT, gd.PUBMEDQA_INSTRUCTION, [], gd.PUBMEDQA_ITEM
        ).text
        parts = parse_prompt_tail(text)
        assert parts["options"] == [("yes", "yes"), ("no", "no"), ("maybe", "maybe")]
        assert parts["question"].endswith(gd.PUBMEDQA_ITEM.question)

    def test_teacher_prompt(self):
        parts = parse_prompt_tail(teacher_prompt(gd.TEST_ITEM))
        assert parts["is_teacher"]
        assert parts["question"] == gd.TEST_ITEM.question
        assert parts["options"] == list(gd.TEST_ITEM.options)


class TestMockPolicies:
    def test_gold_policy_letters(self):
        policy = GoldAnswerPolicy({gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text})
        ep = mock_model(policy)
        text = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text
        response = complete(GenerationRequest(model_id="mock", prompt=text), ep)
        assert response.text == "### Answer: (B) Patellofemoral cartilage"

    def test_gold_policy_words(self):
        # Context-bearing items render "context question" as the question
        # block, so the mock is keyed by the joined text.
        key = f"{gd.PUBMEDQA_ITEM.context} {gd.PUBMEDQA_ITEM.question}"
        policy = GoldAnswerPolicy({key: "yes"})
        ep = mock_model(policy)
        text = assemble_prompt(
            Stage.ZERO_SHOT, gd.PUBMEDQA_INSTRUCTION, [], gd.PUBMEDQA_ITEM
        ).text
        response = complete(GenerationRequest(model_id="mock", prompt=text), ep)
        assert response.text == "### Answer: yes"

    def test_gold_policy_explains_for_teacher(self):
        policy = GoldAnswerPolicy({gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text},
                                  {gd.TEST_ITEM.question: "Because of cartilage load."})
        ep = mock_model(policy)
        response = complete(
            GenerationRequest(model_id="mock", prompt=teacher_prompt(gd.TEST_ITEM)), ep
        )
        assert response.text == ("### Explanation: Because of cartilage load.\n"
                                 "### Answer: (B) Patellofemoral cartilage")

    def test_unknown_question_is_an_error(self):
        ep = mock_model(GoldAnswerPolicy({}))
        text = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text
        with pytest.raises(EndpointError, match="no scripted answer"):
            complete(GenerationRequest(model_id="mock", prompt=text), ep)

    def test_sequence_policy_counts_per_prompt(self):
        outputs = ["first", "second", "last"]
        ep = mock_model(lambda request, occurrence: outputs[min(occurrence, 2)])
        req_a = GenerationRequest(model_id="mock", prompt="prompt A")
        req_b = GenerationRequest(model_id="mock", prompt="prompt B")
        assert complete(req_a, ep).text == "first"
        assert complete(req_b, ep).text == "first"
        assert complete(req_a, ep).text == "second"
        assert complete(req_a, ep).text == "last"
        assert complete(req_a, ep).text == "last"
        assert ep.call_count == 5

    def test_garbage_and_fixed_text(self):
        assert complete(simple_request(), mock_model(GarbagePolicy())).text.startswith("I am unable")
        assert complete(simple_request(), mock_model(lambda request, occurrence: "hi")).text == "hi"

    def test_flaky_gold_fails_then_recovers(self):
        policy = FlakyGoldPolicy(
            {gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text},
            fail_questions={gd.TEST_ITEM.question},
            n_wrong=2,
        )
        ep = mock_model(policy)
        prompt = teacher_prompt(gd.TEST_ITEM)
        req = GenerationRequest(model_id="mock", prompt=prompt)
        first = complete(req, ep).text
        second = complete(req, ep).text
        third = complete(req, ep).text
        assert "(B)" not in first and "(B)" not in second
        assert third.endswith("### Answer: (B) Patellofemoral cartilage")

    def test_prompts_are_counted_by_digest(self):
        """The occurrence table holds each prompt's 32-byte SHA-256 digest,
        not its text, and `flaky_gold` still counts per prompt."""
        policy = FlakyGoldPolicy(
            {gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text},
            fail_questions={gd.TEST_ITEM.question},
            n_wrong=1,
        )
        ep = mock_model(policy)
        teacher = GenerationRequest(model_id="mock", prompt=teacher_prompt(gd.TEST_ITEM))
        zero_shot = GenerationRequest(model_id="mock", prompt=assemble_prompt(
            Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text)
        right = "(B) Patellofemoral cartilage"
        assert right not in complete(teacher, ep).text
        assert right not in complete(zero_shot, ep).text
        assert right in complete(teacher, ep).text
        assert right in complete(zero_shot, ep).text
        assert sorted(ep._occurrences.values()) == [2, 2]
        assert all(type(key) is bytes and len(key) == 32 for key in ep._occurrences)
        assert hashlib.sha256(teacher.prompt.encode("utf-8")).digest() in ep._occurrences

    def test_stage_table_classification(self):
        # The classifier tells random from similarity few-shot by the exemplar
        # question set, so give the two prompts distinguishable exemplars.
        random_items = [
            replace(gd.POOL_BY_ID[i], id=f"alt-{n:05d}",
                    question=f"Alternate drill question number {n}?")
            for n, i in enumerate(gd.RANDOM_ORDER)
        ]
        table = {gd.TEST_ITEM.question: {
            "gold": gd.TEST_ITEM.gold_text,
            "wrong": "Medial meniscus",
            "stages": ["knn_fewshot_cot", "ensemble"],
        }}
        policy = StageTablePolicy(table, {it.question for it in random_items})
        ep = mock_model(policy)

        zs = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text
        assert "(C) Medial meniscus" in complete(
            GenerationRequest(model_id="mock", prompt=zs), ep).text

        knn = knn_prompt()
        assert "(B) Patellofemoral cartilage" in complete(
            GenerationRequest(model_id="mock", prompt=knn), ep).text

        # Same prompt at sampling temperature classifies as the ensemble.
        assert "(B) Patellofemoral cartilage" in complete(
            GenerationRequest(model_id="mock", prompt=knn, temperature=0.4), ep).text

        random_cot = assemble_prompt(
            Stage.RANDOM_FEWSHOT_COT, gd.MEDQA_INSTRUCTION,
            [CotExemplar(item=it, explanation="Worked reasoning.", verified=True)
             for it in random_items],
            gd.TEST_ITEM,
        ).text
        assert "(C) Medial meniscus" in complete(
            GenerationRequest(model_id="mock", prompt=random_cot), ep).text


class TestMockFromFile:
    def test_round_trip(self, tmp_path):
        spec = {"policy": "gold", "answers": {gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text}}
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        ep = build_endpoint(EndpointConfig(url=f"mock:{path}", model_id="target-model"),
                            RetryPolicy())
        assert ep.model_id == "target-model"
        text = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text
        response = complete(GenerationRequest(model_id=ep.model_id, prompt=text), ep)
        assert response.text == "### Answer: (B) Patellofemoral cartilage"

    def test_unknown_policy_name(self, tmp_path):
        path = tmp_path / "policy.json"
        request = GenerationRequest(model_id="m", prompt=assemble_prompt(
            Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text)
        for name in ("nonsense", "fixed_text", "sequence"):
            path.write_text(json.dumps({"policy": name}), encoding="utf-8")
            endpoint = mock_from_file(path, "m")
            with pytest.raises(ConfigError, match=f"unknown mock policy '{name}'"):
                endpoint.complete(request)

    def test_policy_is_read_once_by_the_first_call(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text("not yet a policy", encoding="utf-8")
        endpoint = mock_from_file(path, "m")
        path.write_text(json.dumps({"policy": "gold", "answers": {
            gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text}}), encoding="utf-8")
        request = GenerationRequest(model_id="m", prompt=assemble_prompt(
            Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text)
        expected = "### Answer: (B) Patellofemoral cartilage"
        assert endpoint.complete(request).text == expected
        path.unlink()
        assert endpoint.complete(request).text == expected

    def test_concurrent_first_calls_read_the_policy_once(self, tmp_path, monkeypatch):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"policy": "gold", "answers": {
            gd.TEST_ITEM.question: gd.TEST_ITEM.gold_text}}), encoding="utf-8")
        reads = []
        read_policy = modelgw._read_policy

        def spy(policy_path):
            reads.append(policy_path)
            time.sleep(0.01)  # widen the window concurrent first calls race in
            return read_policy(policy_path)

        monkeypatch.setattr(modelgw, "_read_policy", spy)
        endpoint = mock_from_file(path, "m")
        request = GenerationRequest(model_id="m", prompt=assemble_prompt(
            Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM).text)
        texts = []
        threads = [threading.Thread(target=lambda: texts.append(endpoint.complete(request).text))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reads == [path]
        assert texts == ["### Answer: (B) Patellofemoral cartilage"] * 8

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing"):
            mock_from_file(tmp_path / "absent.json", "m")
