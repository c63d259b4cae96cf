"""Stand-in completions server for the `ensemble_http` workload.

Serves POST /v1/completions on loopback with a fixed per-call delay. It
answers each presentation from an answer table (question text -> correct
option text), except that a seeded share of presentations gets another
option, so some ensemble votes split. The choice is a pure function of
(seed, prompt bytes), so a repeated presentation always gets the same answer.

Every response goes out in a single write on a socket with TCP_NODELAY set:
headers and body sent as separate writes meet Nagle's algorithm and the
client's delayed ACK, which adds tens of milliseconds to every call.

One JSON line per event is appended to the log before the response is sent:
`{"event": "connect"}` per accepted connection, and per request the prompt's
SHA-256, the question, the option text answered, the HTTP status and the
server's own handling time. The log is what the correctness gate votes over.

Run as a script, it prints the bound port on its first stdout line and
serves until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

QUESTION_MARK = "### Question: "
OPTION_RE = re.compile(r"\(([^()\n]+)\)")


def parse_presentation(prompt: str) -> tuple[str, list[tuple[str, str]]]:
    """(question, [(presented token, option text), ...]) of the last question block."""
    start = prompt.rfind(QUESTION_MARK)
    if start < 0:
        raise ValueError("prompt has no question block")
    line = prompt[start + len(QUESTION_MARK):].split("\n", 1)[0]
    tokens = list(OPTION_RE.finditer(line))
    if not tokens:
        raise ValueError("question block has no options")
    options = []
    for i, m in enumerate(tokens):
        end = tokens[i + 1].start() if i + 1 < len(tokens) else len(line)
        options.append((m.group(1), line[m.end():end].strip()))
    return line[: tokens[0].start()].strip(), options


def choose_answer(seed: int, prompt_sha: str, correct: str, texts: list[str],
                  flip_share: float) -> str:
    """The option text answered: `correct`, or for a seeded share another one."""
    digest = hashlib.sha256(f"{seed}|{prompt_sha}".encode("utf-8")).digest()
    if int.from_bytes(digest[:8], "big") / 2**64 >= flip_share:
        return correct
    others = [t for t in texts if t != correct]
    return others[int.from_bytes(digest[8:16], "big") % len(others)]


class StandInServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, answers: dict[str, str], log_path: str, seed: int, delay_s: float,
                 flip_share: float, fail_questions: list[str], unlogged_flips: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answers = answers
        self.seed = seed
        self.delay_s = delay_s
        self.flip_share = flip_share
        self.fail_questions = set(fail_questions)
        # Test hook: answer this many presentations with a flipped option
        # while logging the unflipped one, so the gate has a lie to catch.
        self.unlogged_flips = unlogged_flips
        self._log = open(log_path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def log_event(self, event: dict) -> None:
        with self._lock:
            self._log.write(json.dumps(event, sort_keys=True) + "\n")
            self._log.flush()

    def take_unlogged_flip(self) -> bool:
        with self._lock:
            if self.unlogged_flips <= 0:
                return False
            self.unlogged_flips -= 1
            return True

    def server_close(self) -> None:
        super().server_close()
        self._log.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StandInServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.log_event({"event": "connect"})

    def log_message(self, format, *args) -> None:  # silence per-request stderr lines
        pass

    def _send(self, status: int, body: dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path != "/v1/completions":
            self._send(404, {"error": "not found"})
            return
        prompt = json.loads(body)["prompt"]
        sha = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        question, options = parse_presentation(prompt)
        time.sleep(self.server.delay_s)
        event = {"event": "request", "sha": sha, "question": question}
        if question in self.server.fail_questions:
            event.update(status=500, handle_ms=(time.perf_counter() - started) * 1e3)
            self.server.log_event(event)
            self._send(500, {"error": "injected failure"})
            return
        texts = [text for _, text in options]
        answer = choose_answer(self.server.seed, sha, self.server.answers[question],
                               texts, self.server.flip_share)
        sent = answer
        if self.server.take_unlogged_flip():
            sent = next(t for t in texts if t != answer)
        token = next(tok for tok, text in options if text == sent)
        text = f"### Explanation: Scripted reasoning.\n### Answer: ({token}) {sent}"
        handle_ms = (time.perf_counter() - started) * 1e3
        event.update(status=200, answer=answer, handle_ms=handle_ms)
        self.server.log_event(event)
        self._send(200, {
            "choices": [{"text": text, "finish_reason": "stop"}],
            "usage": {"server_handle_ms": handle_ms},
        })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True,
                        help="JSON file: answers, seed, delay_s, flip_share, "
                             "fail_questions, unlogged_flips")
    parser.add_argument("--log", required=True, help="event log (JSON lines)")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    server = StandInServer(
        spec["answers"], args.log, seed=spec["seed"], delay_s=spec["delay_s"],
        flip_share=spec["flip_share"], fail_questions=spec["fail_questions"],
        unlogged_flips=spec["unlogged_flips"],
    )
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
