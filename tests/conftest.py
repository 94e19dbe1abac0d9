from __future__ import annotations

import json
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Callable

import pytest

from higen.corpus import Document, make_document
from higen.errors import EndpointError
from higen.llm_client import GenRequest, LLMClient, MockBackend, ScoreRequest, prompt_hash

DATA_DIR = Path(__file__).parent / "data"


def load_jsonl(name: str) -> list[dict]:
    rows = []
    for line in (DATA_DIR / name).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def doc_from_sentences(sentences: list[str], doc_id: str = "doc") -> Document:
    return make_document(doc_id, " ".join(sentences))


@pytest.fixture
def three_sentence_doc() -> Document:
    return doc_from_sentences(
        ["Alpha opens the report.", "Bravo covers the middle.", "Charlie closes the report."]
    )


def traced_peak(fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak of the memory it allocated, in
    bytes, as tracemalloc (which numpy reports its arrays to) sees it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def score_requests(client: LLMClient, reqs: list[ScoreRequest]):
    """Score plain requests one at a time through ``score_continuation``, each
    under its own canonical score key."""
    return [client.score_continuation(req) for req in reqs]


def per_token_scorer(context: str, continuation: str) -> float:
    """Scoring contract of the test doubles: total logprob is -0.5 per whitespace token."""
    return -0.5 * len(continuation.split())


class RecordingBackend(MockBackend):
    """A MockBackend that records every request it is sent, a scored one with
    its context replaced by the context's ``prompt_hash``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests: list[GenRequest | ScoreRequest] = []

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        with self._lock:
            self.requests.append(req)
        return super().complete(req)

    def score_many(self, reqs: list[ScoreRequest]) -> list[tuple[float, int]]:
        recorded = [replace(req, context=prompt_hash(req.context)) for req in reqs]
        with self._lock:
            self.requests.extend(recorded)
        return super().score_many(reqs)


def make_mock_client(tmp_path, backend=None, **kwargs) -> tuple[LLMClient, RecordingBackend]:
    backend = backend or RecordingBackend(score_fn=per_token_scorer)
    client = LLMClient(backend, cache_dir=tmp_path / "cache", **kwargs)
    return client, backend


class ScriptedBackend:
    """Backend that replays a fixed sequence of completion texts."""

    def __init__(self, responses: list[str], score_fn: Callable[[str, str], float] = per_token_scorer):
        self._responses = list(responses)
        self._index = 0
        self.score_fn = score_fn
        self.requests: list[GenRequest | ScoreRequest] = []
        self._lock = threading.Lock()

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        with self._lock:
            self.requests.append(req)
            if self._index >= len(self._responses):
                raise EndpointError(500, "scripted backend exhausted")
            text = self._responses[self._index]
            self._index += 1
        return text, len(req.user_prompt.split()), len(text.split())

    def score_many(self, reqs: list[ScoreRequest]) -> list[tuple[float, int]]:
        with self._lock:
            self.requests.extend(reqs)
        return [
            (self.score_fn(req.context, req.continuation), max(len(req.continuation.split()), 1)) for req in reqs
        ]
