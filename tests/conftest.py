from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Callable

import pytest

from higen.corpus import Document, make_document
from higen.errors import EndpointError
from higen.llm_client import GenRequest, LLMClient, MockBackend, ScoreRequest, per_token_scorer

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


@pytest.fixture
def mock_client(tmp_path) -> LLMClient:
    return LLMClient(MockBackend(), cache_dir=tmp_path / "cache", concurrency=4)


def make_mock_client(tmp_path, backend=None, **kwargs) -> tuple[LLMClient, MockBackend]:
    backend = backend or MockBackend()
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
