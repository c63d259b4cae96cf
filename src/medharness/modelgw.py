"""HTTP inference boundary: completions, embeddings, and scripted mocks.

Every model call in the harness goes through `complete()` against an endpoint
object. Real endpoints speak the common completions wire shape
(POST {base}/v1/completions, POST {base}/v1/embeddings). Mock endpoints run
in process, parse the prompt they are handed, and answer from a scripted
policy, which is what the offline test suite and the `mock:` URL scheme use.

Transient transport faults (timeouts, connection drops, 429, 5xx) retry with
exponential backoff; anything else fails immediately. A well-formed response
is never retried, whatever its text says.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ConfigError, EndpointError

__all__ = [
    "GenerationRequest",
    "GenerationResponse",
    "RetryPolicy",
    "HttpEndpoint",
    "MockEndpoint",
    "mock_model",
    "complete",
    "default_max_tokens",
    "mock_from_file",
    "parse_prompt_tail",
    "GoldAnswerPolicy",
    "GarbagePolicy",
    "FlakyGoldPolicy",
    "StageTablePolicy",
]

MIN_COT_MAX_TOKENS = 256
MAX_COT_MAX_TOKENS = 1024
ANSWER_ONLY_MAX_TOKENS = 32
DEFAULT_TIMEOUT = 120.0


@dataclass(frozen=True)
class GenerationRequest:
    model_id: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = ANSWER_ONLY_MAX_TOKENS
    stop_sequences: tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if not self.prompt:
            raise ConfigError("empty prompt")
        if self.temperature < 0.0:
            raise ConfigError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    finish_reason: str = "stop"
    usage: dict = field(default_factory=dict)
    latency: float = 0.0
    retries: int = 0


def default_max_tokens(exemplars) -> int:
    """Token budget for a completion, sized from the exemplar explanations.

    Answer-only prompts get a small fixed budget. When explanations are
    present the budget is 1.5x the mean `word_count` of the exemplars that
    have one, clamped to [256, 1024] so one terse or rambling exemplar set
    cannot starve or flood the generation.
    """
    lengths = [e.word_count for e in exemplars if e.word_count]
    if not lengths:
        return ANSWER_ONLY_MAX_TOKENS
    target = math.ceil(1.5 * (sum(lengths) / len(lengths)))
    return max(MIN_COT_MAX_TOKENS, min(MAX_COT_MAX_TOKENS, target))


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 8.0

    def delay(self, attempt: int) -> float:
        # A float holds no larger power of two; the delay saturates long before.
        exponent = min(attempt, sys.float_info.max_exp - 1)
        return min(self.backoff_cap, self.backoff_base * 2.0 ** exponent)


class HttpEndpoint:
    """Completions/embeddings endpoint over HTTP(S), on stdlib `http.client`.

    Calls reuse keep-alive connections from a lock-guarded stack of idle
    ones. A call takes one (or opens one) and gives it back only after it
    has read a complete response; a transport error closes it. So open
    connections never outnumber calls in flight. Proxy environment variables
    are not read, and HTTPS verifies against the system CA store. `close`
    closes the idle connections.

    Construction opens nothing: it refuses a URL other than
    http(s)://host[:port][/path] and an `api_key_env` naming an unset or
    empty variable, and the first call opens the first connection.
    """

    def __init__(
        self,
        base_url: str,
        model_id: str,
        api_key_env: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        retry: RetryPolicy = RetryPolicy(),
    ):
        # Imported here, not at module level, so runs against `mock:`
        # endpoints never load the HTTP and TLS modules.
        import http.client

        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        try:
            host, port = parts.hostname, parts.port
        except ValueError:
            host = None
        if parts.scheme not in ("http", "https") or not host:
            raise ConfigError(f"endpoint URL must be http(s)://host[:port][/path], "
                              f"got {base_url!r}")
        self._path_prefix = parts.path
        self.model_id = model_id
        self.retry = retry
        self._sleep = time.sleep  # the backoff wait; tests record it instead
        self._headers = {"Content-Type": "application/json"}
        if api_key_env:
            key = os.environ.get(api_key_env)
            if not key:
                raise ConfigError(f"credential variable {api_key_env} is not set")
            self._headers["Authorization"] = f"Bearer {key}"
        connection_class = (http.client.HTTPSConnection if parts.scheme == "https"
                            else http.client.HTTPConnection)
        self._open = functools.partial(connection_class, host, port, timeout=timeout)
        self._idle: list = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections. The endpoint stays usable: a later call opens one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connection(self):
        """An idle connection the server has not closed, else a new one."""
        import select

        while True:
            with self._idle_lock:
                if not self._idle:
                    return self._open()
                conn = self._idle.pop()
            # A readable idle socket means the server closed it (or sent bytes
            # no request asked for); either way it cannot carry a request.
            if conn.sock is None or not select.select([conn.sock], [], [], 0)[0]:
                return conn
            conn.close()

    def _exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        """POST `body` to `path`; (status, response body)."""
        conn = self._connection()
        try:
            conn.request("POST", self._path_prefix + path, body=body, headers=self._headers)
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        with self._idle_lock:
            self._idle.append(conn)
        return response.status, data

    def _post_json(self, path: str, payload: dict) -> tuple[dict, int]:
        import http.client

        url = f"{self.base_url}{path}"
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        retries = 0
        attempt = 0
        while True:
            try:
                status, data = self._exchange(path, body)
                if status == 429 or 500 <= status <= 599:
                    raise _Transient(f"status {status}")
                if status != 200:
                    text = data.decode("utf-8", "replace")
                    raise EndpointError(f"{url}: HTTP {status}: {text[:300]}")
                try:
                    return json.loads(data), retries
                except ValueError as exc:
                    raise EndpointError(f"{url}: non-JSON response body") from exc
            except (_Transient, OSError, http.client.HTTPException) as exc:
                if attempt >= self.retry.max_retries:
                    raise EndpointError(f"{url}: gave up after {attempt + 1} attempts: {exc}") from None
                self._sleep(self.retry.delay(attempt))
                attempt += 1
                retries += 1

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        payload: dict = {
            "model": request.model_id,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.stop_sequences:
            payload["stop"] = list(request.stop_sequences)
        if request.seed is not None:
            payload["seed"] = request.seed
        started = time.monotonic()
        data, retries = self._post_json("/v1/completions", payload)
        latency = time.monotonic() - started
        try:
            choice = data["choices"][0]
            text = choice["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed completion response: {exc!r}") from exc
        if not isinstance(text, str):
            raise EndpointError("malformed completion response: text is not a string")
        return GenerationResponse(
            text=text,
            finish_reason=choice.get("finish_reason", "stop"),
            usage=data.get("usage", {}),
            latency=latency,
            retries=retries,
        )

    def embed_batch(self, texts: list[str], model: str) -> list[list[float]]:
        payload = {"model": model, "input": list(texts)}
        data, _ = self._post_json("/v1/embeddings", payload)
        try:
            rows = sorted(data["data"], key=lambda row: row["index"])
            vectors = [row["embedding"] for row in rows]
        except (KeyError, TypeError) as exc:
            raise EndpointError(f"malformed embeddings response: {exc!r}") from exc
        if len(vectors) != len(texts):
            raise EndpointError(
                f"embeddings response has {len(vectors)} vectors for {len(texts)} inputs"
            )
        return vectors


class _Transient(Exception):
    """Retryable transport condition (429/5xx), internal to HttpEndpoint."""


# -- prompt parsing shared by the mock policies ------------------------

_QUESTION_HEADING = "### Question: "
_OPTION_TOKEN = re.compile(r"\(([^()\n]+)\)")


def parse_prompt_tail(prompt: str) -> dict:
    """Split the final question block of a prompt into its parts.

    Returns question text, presented (token, text) option pairs, and
    whether the prompt ends at an explanation heading. Mocks key their
    behavior off these parts, so scripted corpora must keep parentheses out
    of question and option text.
    """
    start = prompt.rfind(_QUESTION_HEADING)
    if start < 0:
        raise EndpointError("mock endpoint: prompt has no question heading")
    segment = prompt[start + len(_QUESTION_HEADING):]
    options_line = None
    if "\n### Options: " in segment:
        segment, rest = segment.split("\n### Options: ", 1)
        options_line = rest.split("\n", 1)[0]
    else:
        segment = segment.split("\n###", 1)[0]
    source = options_line if options_line is not None else segment
    tokens = list(_OPTION_TOKEN.finditer(source))
    options: list[tuple[str, str]] = []
    for i, m in enumerate(tokens):
        end = tokens[i + 1].start() if i + 1 < len(tokens) else len(source)
        text = source[m.end():end].strip()
        options.append((m.group(1), text if text else m.group(1)))
    question = source[: tokens[0].start()].strip() if tokens else segment.strip()
    if options_line is not None and tokens:
        question = segment.strip()
    return {
        "question": question,
        "options": options,
        "wants_explanation": prompt.endswith("### Explanation:"),
        "is_teacher": options_line is not None,
    }


def _word_options(options: list[tuple[str, str]]) -> bool:
    return all(token == text for token, text in options)


def _answer_line(options: list[tuple[str, str]], text: str) -> str:
    for token, opt_text in options:
        if opt_text == text or token == text:
            if _word_options(options):
                return f"### Answer: {token}"
            return f"### Answer: ({token}) {opt_text}"
    raise EndpointError(f"mock endpoint: no presented option has text {text!r}")


class GoldAnswerPolicy:
    """Answer with the designated text's presented token, optionally with a
    short explanation first; one table row per question text."""

    def __init__(self, answers: dict[str, str], explanations: dict[str, str] | None = None):
        self.answers = dict(answers)
        self.explanations = dict(explanations or {})

    def __call__(self, request: GenerationRequest, occurrence: int) -> str:
        parts = parse_prompt_tail(request.prompt)
        q = parts["question"]
        if q not in self.answers:
            raise EndpointError(f"mock endpoint: no scripted answer for question {q!r}")
        answer = _answer_line(parts["options"], self.answers[q])
        if parts["wants_explanation"] or parts["is_teacher"]:
            expl = self.explanations.get(q, f"Reasoning about {q.split('?')[0][:60]}.")
            return f"### Explanation: {expl}\n{answer}"
        return answer


class GarbagePolicy:
    """Always emit text no answer can be extracted from."""

    def __call__(self, request: GenerationRequest, occurrence: int) -> str:
        return "I am unable to determine the correct option."


class FlakyGoldPolicy:
    """Answer wrongly the first `n_wrong` times a failing question is asked,
    then correctly; other questions are answered correctly at once."""

    def __init__(
        self,
        answers: dict[str, str],
        fail_questions: set[str] | None = None,
        n_wrong: int = 3,
    ):
        self.gold = GoldAnswerPolicy(answers)
        self.fail_questions = set(fail_questions or ())
        self.n_wrong = n_wrong

    def __call__(self, request: GenerationRequest, occurrence: int) -> str:
        parts = parse_prompt_tail(request.prompt)
        q = parts["question"]
        if q in self.fail_questions and occurrence < self.n_wrong:
            gold_text = self.gold.answers.get(q)
            for token, text in parts["options"]:
                if text != gold_text and token != gold_text:
                    line = _answer_line(parts["options"], text)
                    return f"### Explanation: A tempting but wrong line of reasoning.\n{line}"
        return self.gold(request, occurrence)


class StageTablePolicy:
    """Decide correctness per (question, prompt shape) from a scripted table.

    The prompt shape is classified from what the policy can see: sampling
    temperature, the number of question blocks, the final heading, and
    whether the exemplar questions match a designated set.
    """

    # The prompt shapes `classify` tells apart: the ladder's stage names.
    SHAPES = ("zero_shot", "random_fewshot", "random_fewshot_cot", "knn_fewshot_cot", "ensemble")

    def __init__(self, table: dict[str, dict], random_exemplar_questions: set[str]):
        # table[question] = {"gold": text, "wrong": text, "stages": [shape, ...]}
        self.table = dict(table)
        self.random_exemplar_questions = set(random_exemplar_questions)

    @staticmethod
    def exemplar_questions(prompt: str) -> list[str]:
        """The question text of each exemplar block of `prompt`, in order."""
        questions = []
        for chunk in prompt.split(_QUESTION_HEADING)[1:-1]:
            body = chunk.split("\n###", 1)[0]
            first = _OPTION_TOKEN.search(body)
            questions.append(body[: first.start()].strip() if first else body.strip())
        return questions

    def classify(self, request: GenerationRequest, parts: dict) -> str:
        if request.temperature >= 0.2:
            return "ensemble"
        exemplar_questions = self.exemplar_questions(request.prompt)
        if not exemplar_questions:
            return "zero_shot"
        if not parts["wants_explanation"]:
            return "random_fewshot"
        if set(exemplar_questions) == self.random_exemplar_questions:
            return "random_fewshot_cot"
        return "knn_fewshot_cot"

    def __call__(self, request: GenerationRequest, occurrence: int) -> str:
        parts = parse_prompt_tail(request.prompt)
        q = parts["question"]
        if q not in self.table:
            raise EndpointError(f"mock endpoint: no table row for question {q!r}")
        row = self.table[q]
        shape = self.classify(request, parts)
        text = row["gold"] if shape in row["stages"] else row["wrong"]
        answer = _answer_line(parts["options"], text)
        if parts["wants_explanation"] or parts["is_teacher"]:
            return f"### Explanation: Scripted reasoning.\n{answer}"
        return answer


class MockEndpoint:
    """In-process endpoint driven by a policy callable.

    The policy receives the request plus how many times this exact prompt
    byte string has been seen before, so retry behavior can be scripted.
    Prompts are counted by their SHA-256 digest, so the endpoint keeps 32
    bytes per distinct prompt, not its text. Thread-safe; counts every call.
    """

    def __init__(self, policy, model_id: str = "mock"):
        self.policy = policy
        self.model_id = model_id
        self.call_count = 0
        self._occurrences: dict[bytes, int] = {}
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        key = hashlib.sha256(request.prompt.encode("utf-8", "surrogatepass")).digest()
        with self._lock:
            n = self._occurrences.get(key, 0)
            self._occurrences[key] = n + 1
            self.call_count += 1
        text = self.policy(request, n)
        return GenerationResponse(text=text, finish_reason="stop", usage={}, latency=0.0)


def mock_model(policy) -> MockEndpoint:
    return MockEndpoint(policy)


_POLICY_REGISTRY = {
    "gold": lambda spec: GoldAnswerPolicy(spec["answers"], spec.get("explanations")),
    "garbage": lambda spec: GarbagePolicy(),
    "flaky_gold": lambda spec: FlakyGoldPolicy(
        spec["answers"], set(spec.get("fail_questions", ())), spec.get("n_wrong", 3),
    ),
    "stage_table": lambda spec: StageTablePolicy(
        spec["table"], set(spec["random_exemplar_questions"])
    ),
}


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _string_map(value) -> bool:
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _table_rows(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(row, dict) and isinstance(row.get("gold"), str)
        and isinstance(row.get("wrong"), str) and isinstance(row.get("stages"), list)
        and all(shape in StageTablePolicy.SHAPES for shape in row["stages"])
        for row in value.values())


# What each policy key holds, wherever it appears: (check, description).
_KEY_TYPES = {
    "answers": (_string_map, "an object mapping strings to strings"),
    "explanations": (_string_map, "an object mapping strings to strings"),
    "fail_questions": (_strings, "a list of strings"),
    "random_exemplar_questions": (_strings, "a list of strings"),
    "n_wrong": (lambda v: type(v) is int and v >= 0, "an integer of at least 0"),
    "table": (_table_rows, "an object of rows with string gold and wrong and a list of "
                           f"stage names from {', '.join(StageTablePolicy.SHAPES)}"),
}


def mock_from_file(path: str | Path, model_id: str) -> MockEndpoint:
    """The in-process endpoint answering as `model_id` from the policy file at
    `path`. The file must exist now; the endpoint's first call reads it and
    builds the policy, so an endpoint never called never parses it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"mock policy file missing: {path}")
    return MockEndpoint(_PolicyFile(path), model_id)


class _PolicyFile:
    """The policy a `mock:` file describes, read and built by the first call, once."""

    def __init__(self, path: Path):
        self.path = path
        self._policy = None
        self._lock = threading.Lock()

    def __call__(self, request: GenerationRequest, occurrence: int) -> str:
        if self._policy is None:
            with self._lock:
                if self._policy is None:
                    self._policy = _read_policy(self.path)
        return self._policy(request, occurrence)


def _read_policy(path: Path):
    """The policy the JSON object in `path` names. A body that is not a JSON
    object, an unknown `policy`, a missing key the policy needs or a key not
    of its `_KEY_TYPES` type is a ConfigError naming the file."""
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"mock policy file {path} is not readable JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ConfigError(f"mock policy file {path} must hold a JSON object")
    name = spec.get("policy")
    if name not in _POLICY_REGISTRY:
        raise ConfigError(f"unknown mock policy {name!r} in {path}")
    for key, (check, expected) in _KEY_TYPES.items():
        if key in spec and not check(spec[key]):
            raise ConfigError(f"mock policy {name!r} in {path}: {key!r} must be {expected}")
    try:
        return _POLICY_REGISTRY[name](spec)
    except KeyError as exc:
        raise ConfigError(f"mock policy {name!r} in {path} needs key {exc}") from None


def complete(request: GenerationRequest, endpoint) -> GenerationResponse:
    """Single entry point for all completions; never mutates the prompt."""
    return endpoint.complete(request)
