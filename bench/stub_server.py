"""Stub OpenAI-compatible endpoint on 127.0.0.1 for the HTTP workload.

Routes:
  POST /v1/chat/completions  text from ``higen.llm_client.echo_first_k``; the
                             two FactScore judge templates are answered with
                             numbered facts and ``Answer: yes/no``.
  POST /v1/completions       the prompt echoed back with ``token_logprobs`` and
                             ``text_offset``. Words, punctuation and whitespace
                             are separate tokens, so the seam between context
                             and continuation falls on a token boundary.
  POST /stub/reset           the counters since the last reset; clears them.

Each ``/v1`` route sleeps a fixed latency before answering. One request in
``FAULT_EVERY``, picked by a hash of its body, is refused with a 429 or 503 on
its first attempt; the retry of the same body succeeds. The hash masks every
letter: the benchmark's seeds only re-spell the corpus words (corpus_gen.py),
so every seed faults the same requests and does the same retry work. No
malformed bodies are ever sent.

The server runs in its own process (``StubProcess``, a child interpreter
running this file) so that its CPU time is not charged to the client under
test.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import signal
import string
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import higen
from higen.llm_client import GenRequest, echo_first_k

# Latencies are far below a hosted model's, so a pass still fits in a benchmark
# window. The client's retry backoff is left at its default.
ROUTE_LATENCY_S = {"/v1/chat/completions": 0.08, "/v1/completions": 0.03}
FAULT_EVERY = 30
START_TIMEOUT_S = 60.0
_MASK_LETTERS = bytes.maketrans(string.ascii_letters.encode(), b"x" * len(string.ascii_letters))
MAX_FACTS = 6
SUPPORT_SHARE = 0.8

_EXTRACT_PREFIX = "You are given a summary. Decompose it into atomic facts."
_VERIFY_PREFIX = "You are given a document and a statement."
_ECHO_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|\s+|[^A-Za-z0-9\s]")
_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+")

# Logprobs of echoed tokens. As in higen's overlap scorer, a word the prompt
# has not shown before costs far more than a repeated one, so ablating the
# sentences that carry the continuation's words lowers its score.
_NEW_WORD_LOGPROB = -2.5
_SEEN_WORD_LOGPROB = -0.05
_OTHER_LOGPROB = -0.01


def judge_answer(prompt: str) -> str | None:
    """Reply to a FactScore judge prompt, or None for any other prompt."""
    if prompt.startswith(_EXTRACT_PREFIX):
        summary = prompt.rsplit("Summary:\n", 1)[-1].strip()
        facts = [s for s in _SENTENCE_END_RE.split(summary) if s][:MAX_FACTS]
        return "\n".join(f"{i}. {fact}" for i, fact in enumerate(facts, start=1))
    if prompt.startswith(_VERIFY_PREFIX):
        head, _, statement = prompt.rpartition("\n\nStatement:\n")
        document = set(_WORD_RE.findall(head.lower()))
        words = _WORD_RE.findall(statement.lower())
        supported = words and sum(w in document for w in words) >= SUPPORT_SHARE * len(words)
        return "Answer: yes" if supported else "Answer: no"
    return None


def echo_logprobs(text: str) -> dict:
    offsets: list[int] = []
    logprobs: list[float | None] = []
    seen: set[str] = set()
    for match in _ECHO_TOKEN_RE.finditer(text):
        token = match.group()
        offsets.append(match.start())
        if token[0].isalnum():
            word = token.lower()
            logprobs.append(_SEEN_WORD_LOGPROB if word in seen else _NEW_WORD_LOGPROB)
            seen.add(word)
        else:
            logprobs.append(_OTHER_LOGPROB)
    if logprobs:
        logprobs[0] = None  # the first echoed token has no conditional logprob
    return {"token_logprobs": logprobs, "text_offset": offsets}


class _Counters:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.values: dict[str, int] = {}
        self.reset()

    def reset(self) -> dict[str, int]:
        snapshot = self.values
        self.values = {"requests": 0, "faults_injected": 0, "request_bytes": 0}
        self.faulted: set[bytes] = set()
        return snapshot


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    counters: _Counters

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/stub/reset":
            with self.counters.lock:
                snapshot = self.counters.reset()
            self._reply(200, snapshot)
            return
        if self.path not in ROUTE_LATENCY_S:
            self._reply(404, {"error": {"message": f"no route {self.path}"}})
            return
        digest = hashlib.sha256(body.translate(_MASK_LETTERS)).digest()
        with self.counters.lock:
            values = self.counters.values
            values["requests"] += 1
            values["request_bytes"] += len(body)
            fault = int.from_bytes(digest[:8], "big") % FAULT_EVERY == 0 and digest not in self.counters.faulted
            if fault:
                self.counters.faulted.add(digest)
                values["faults_injected"] += 1
        time.sleep(ROUTE_LATENCY_S[self.path])
        if fault:
            self._reply(429 if digest[8] & 1 else 503, {"error": {"message": "injected fault"}})
            return
        payload = json.loads(body)
        if self.path == "/v1/completions":
            prompts = payload["prompt"] if isinstance(payload["prompt"], list) else [payload["prompt"]]
            choices = [
                {"index": i, "text": prompt, "logprobs": echo_logprobs(prompt), "finish_reason": "length"}
                for i, prompt in enumerate(prompts)
            ]
            self._reply(200, {"object": "text_completion", "model": payload.get("model"), "choices": choices})
            return
        prompt = payload["messages"][-1]["content"]
        text = judge_answer(prompt)
        if text is None:
            text = echo_first_k(GenRequest(model=payload["model"], user_prompt=prompt))
        usage = {"prompt_tokens": len(prompt.split()), "completion_tokens": len(text.split())}
        message = {"role": "assistant", "content": text}
        self._reply(200, {"object": "chat.completion", "choices": [{"index": 0, "message": message}], "usage": usage})


def serve() -> None:
    """Process entry point: bind, print the port on stdout, serve until stdin
    closes. The parent closing its end, or dying, stops the server."""
    handler = type("Handler", (_Handler,), {"counters": _Counters()})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.buffer.read()
    server.shutdown()
    server.server_close()
    thread.join()


class StubProcess:
    """The stub in a child interpreter; ``close`` stops it and waits for it.

    A plain subprocess rather than multiprocessing: the spawn method also
    starts a resource-tracker process that outlives the benchmark."""

    def __init__(self):
        paths = [str(Path(higen.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        try:
            ready, _, _ = select.select([self._process.stdout], [], [], START_TIMEOUT_S)
            line = self._process.stdout.readline() if ready else b""
            if not line.strip().isdigit():
                raise RuntimeError("stub server did not start")
        except BaseException:
            self.close()
            raise
        self.base_url = f"http://127.0.0.1:{int(line)}"

    def reset(self) -> dict:
        """Counters since the previous reset."""
        request = urllib.request.Request(f"{self.base_url}/stub/reset", data=b"{}", method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when the stub stops
    serve()
