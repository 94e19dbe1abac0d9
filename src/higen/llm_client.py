"""Uniform access to OpenAI-compatible endpoints.

Two capabilities are exposed: greedy text generation (chat-completions route)
and teacher-forced log-probability scoring of a fixed continuation
(completions route with echo + logprobs). Scoring is batched: ``score_many``
sends every uncached context of a batch in one request with an array
``prompt`` and maps the choices back by ``index``. Requests are cached on
disk by a content hash, one entry per generation or scored context, so
interrupted experiments replay offline; with a cache, concurrent identical
generations share one backend call. A missing or damaged entry is a miss.
A scored context's key is ``score_key``, the sha256 of the canonical JSON of
the request; a caller that holds the context's JSON-escaped sentences (as
attribution does) builds it from them without re-encoding the context, and
gets the same key, so caches written before keep hitting. A deterministic
mock backend makes the whole pipeline reproducible in tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Protocol

import numpy as np
import requests
from requests.adapters import HTTPAdapter

from . import corpus
from .errors import (
    CapabilityError,
    ConfigError,
    EndpointError,
    OversizeError,
    SeamAlignmentError,
    TransportError,
)
from .prompts import numbered_items

DEFAULT_TIMEOUT = 120.0

_OVERSIZE_RE = re.compile(r"context(\s|_)?(length|window)|maximum.*(length|tokens)|too (long|many tokens)", re.IGNORECASE)


@dataclass(frozen=True)
class GenRequest:
    model: str
    user_prompt: str
    system_prompt: str | None = None
    temperature: float = 0.0
    max_tokens: int = 1024
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class GenResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int
    cached: bool


@dataclass(frozen=True)
class ScoreRequest:
    """A continuation to score after a context. ``key``, when given, is the
    request's ``score_key``, computed by the caller; it is not compared."""

    model: str
    context: str
    continuation: str
    key: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.continuation:
            raise ValueError("continuation must be non-empty")


@dataclass(frozen=True)
class ScoreResponse:
    total_logprob: float
    token_count: int


@dataclass(frozen=True)
class RetryPolicy:
    attempts: int = 5
    base_delay: float = 1.0
    factor: float = 2.0
    jitter: float = 0.2


class _Retryable(Exception):
    """Internal signal: transient failure worth another attempt."""


class Backend(Protocol):
    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        """Return (text, prompt_tokens, completion_tokens)."""

    def score_many(self, reqs: list[ScoreRequest]) -> list[tuple[float, int]]:
        """Return (total_logprob, token_count) of each continuation, in order."""


def _canonical_gen_key(req: GenRequest) -> str:
    payload = {
        "kind": "gen",
        "model": req.model,
        "system_prompt": req.system_prompt,
        "user_prompt": req.user_prompt,
        "temperature": req.temperature,
        "max_tokens": req.max_tokens,
        "seed": req.seed,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


def score_key(model: str, continuation: str, escaped_context: bytes) -> str:
    """The cache key of scoring ``continuation`` after a context, given the
    context as ``corpus.json_escaped`` bytes: the sha256 of
    ``json.dumps({"kind": "score", "model", "context", "continuation"},
    sort_keys=True, ensure_ascii=False)``, whose first member is the context."""
    rest = {"continuation": continuation, "kind": "score", "model": model}
    digest = hashlib.sha256(b'{"context": "')
    digest.update(escaped_context)
    digest.update(b'", ' + json.dumps(rest, sort_keys=True, ensure_ascii=False)[1:].encode("utf-8"))
    return digest.hexdigest()


def _canonical_score_key(req: ScoreRequest) -> str:
    return score_key(req.model, req.continuation, corpus.json_escaped(req.context))


def prompt_hash(prompt: str) -> str:
    """Short stable identifier for a prompt, safe to log (never the prompt itself)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


# The fields of a cached response, in the order of the response's fields,
# with the types a usable entry holds.
_GEN_FIELDS = {"text": str, "prompt_tokens": int, "completion_tokens": int}
_SCORE_FIELDS = {"total_logprob": (int, float), "token_count": int}


class LLMClient:
    """Thread-safe client wrapping a backend with caching, retry, and an in-flight bound."""

    def __init__(
        self,
        backend: Backend,
        cache_dir: str | Path | None = None,
        concurrency: int = 4,
        retry: RetryPolicy = RetryPolicy(),
        sleep: Callable[[float], None] = time.sleep,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.backend = backend
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.retry = retry
        self._sleep = sleep
        self._semaphore = threading.BoundedSemaphore(concurrency)
        self._stats_lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self.backend_calls = 0
        self.cache_hits = 0

    # -- cache ------------------------------------------------------------

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_read(self, key: str, fields: dict[str, type | tuple[type, ...]]) -> list | None:
        """The values of ``fields`` (name: type) in the cached response under
        ``key``, or None on a miss: no cache, no entry, or a damaged one (not
        UTF-8 JSON, or a field missing or of another type). A damaged entry
        is computed and written again."""
        if self.cache_dir is None:
            return None
        try:
            with open(self._cache_path(key), "rb") as handle:
                response = json.loads(handle.read().decode("utf-8"))["response"]
            values = [response[name] for name in fields]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None
        return values if all(map(isinstance, values, fields.values())) else None

    def _cache_write(self, key: str, request: dict, response: dict) -> None:
        if self.cache_dir is None:
            return
        path = self._cache_path(key)
        # Unique temp name per writer: concurrent writers of the same entry
        # hold identical content, so whichever rename lands last wins.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"request": request, "response": response}, ensure_ascii=False))
        os.replace(tmp, path)

    # -- retry ------------------------------------------------------------

    def _with_retry(self, call: Callable[[], object]) -> object:
        last: Exception | None = None
        for attempt in range(self.retry.attempts):
            try:
                with self._semaphore:
                    return call()
            except _Retryable as exc:
                last = exc
                if attempt + 1 < self.retry.attempts:
                    delay = self.retry.base_delay * self.retry.factor**attempt
                    delay *= 1.0 + random.uniform(-self.retry.jitter, self.retry.jitter)
                    self._sleep(max(delay, 0.0))
        raise TransportError(f"retries exhausted after {self.retry.attempts} attempts: {last}")

    def _count_backend_call(self) -> None:
        with self._stats_lock:
            self.backend_calls += 1

    def _count_cache_hit(self) -> None:
        with self._stats_lock:
            self.cache_hits += 1

    def _key_lock(self, key: str) -> threading.Lock:
        with self._stats_lock:
            return self._key_locks.setdefault(key, threading.Lock())

    # -- public API --------------------------------------------------------

    def generate(self, req: GenRequest, doc_id: str | None = None) -> GenResponse:
        """Generate, or replay the cached response. Concurrent callers of one
        request wait on its key, so the later ones read the first one's entry."""
        key = _canonical_gen_key(req)
        with self._key_lock(key):
            return self._generate(key, req, doc_id)

    def _generate(self, key: str, req: GenRequest, doc_id: str | None) -> GenResponse:
        hit = self._cache_read(key, _GEN_FIELDS)
        if hit is not None:
            self._count_cache_hit()
            return GenResponse(*hit, latency_ms=0, cached=True)

        def call() -> tuple[str, int, int]:
            self._count_backend_call()
            return self.backend.complete(req)

        started = time.monotonic()
        try:
            text, prompt_tokens, completion_tokens = self._with_retry(call)
        except OversizeError as exc:
            raise OversizeError(str(exc), doc_id=doc_id) if doc_id and not exc.doc_id else exc
        latency_ms = int((time.monotonic() - started) * 1000)
        response = {
            "text": text,
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
        self._cache_write(key, {"kind": "gen", "key": key}, response)
        return GenResponse(text, prompt_tokens, completion_tokens, latency_ms, cached=False)

    def score_continuation(self, req: ScoreRequest, doc_id: str | None = None) -> ScoreResponse:
        return self.score_many([req], doc_id)[0]

    def score_many(self, reqs: list[ScoreRequest], doc_id: str | None = None) -> list[ScoreResponse]:
        """Score each request, in order. Each one is cached under its own key
        (``req.key``, or ``score_key`` of the request when it has none); the
        distinct misses go to the backend in one call (one request), retried
        as a whole on a transient failure."""
        keys = [req.key or _canonical_score_key(req) for req in reqs]
        results: dict[str, ScoreResponse] = {}
        misses: dict[str, ScoreRequest] = {}
        for key, req in zip(keys, reqs):
            hit = self._cache_read(key, _SCORE_FIELDS)
            if hit is None:
                misses[key] = req
            else:
                self._count_cache_hit()
                results[key] = ScoreResponse(*hit)
        if misses:
            batch = list(misses.values())

            def call() -> list[tuple[float, int]]:
                self._count_backend_call()
                return self.backend.score_many(batch)

            try:
                scored = self._with_retry(call)
            except OversizeError as exc:
                raise OversizeError(str(exc), doc_id=doc_id) if doc_id and not exc.doc_id else exc
            for key, (total_logprob, token_count) in zip(misses, scored):
                self._cache_write(
                    key,
                    {"kind": "score", "key": key},
                    {"total_logprob": total_logprob, "token_count": token_count},
                )
                results[key] = ScoreResponse(total_logprob, token_count)
        return [results[key] for key in keys]


class HTTPBackend:
    """OpenAI-compatible HTTP backend: chat completions for generation,
    echoed completions with logprobs for teacher-forced scoring."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def _post(self, path: str, payload: dict, **decode) -> dict:
        """POST a JSON payload; ``decode`` is passed on to the JSON decoder."""
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self.session.post(
                f"{self.base_url}{path}", json=payload, headers=headers, timeout=self.timeout
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            raise _Retryable(f"transport failure: {exc}") from exc
        if resp.status_code in (429, 500, 502, 503, 504):
            raise _Retryable(f"HTTP {resp.status_code}")
        if resp.status_code >= 400:
            excerpt = resp.text[:200]
            if resp.status_code == 400 and _OVERSIZE_RE.search(excerpt):
                raise OversizeError(f"backend rejected oversize request: {excerpt}")
            raise EndpointError(resp.status_code, excerpt)
        try:
            return resp.json(**decode)
        except ValueError as exc:  # requests.JSONDecodeError
            raise EndpointError(resp.status_code, f"malformed JSON body: {resp.text[:200]}") from exc

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        messages = []
        if req.system_prompt:
            messages.append({"role": "system", "content": req.system_prompt})
        messages.append({"role": "user", "content": req.user_prompt})
        payload: dict = {
            "model": req.model,
            "messages": messages,
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        data = self._post("/v1/chat/completions", payload)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise EndpointError(200, f"unexpected completion payload: {exc}") from exc
        usage = data.get("usage") or {}
        return text, int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))

    def score(self, req: ScoreRequest) -> tuple[float, int]:
        return self.score_many([req])[0]

    def score_many(self, reqs: list[ScoreRequest]) -> list[tuple[float, int]]:
        """Score a batch of one model in one completions request. An item whose
        seam falls inside a token is tried once more, with a space inserted
        at its seam (common BPE vocabularies start continuation tokens on the
        space); only those items are sent again."""
        model = reqs[0].model
        if any(req.model != model for req in reqs):
            raise ValueError("a scoring batch must use one model")
        results = self._score_once([(req.context, req.continuation) for req in reqs], model)
        misaligned = [i for i, result in enumerate(results) if isinstance(result, SeamAlignmentError)]
        if misaligned:
            pairs = [(reqs[i].context + " ", reqs[i].continuation) for i in misaligned]
            for i, result in zip(misaligned, self._score_once(pairs, model)):
                if isinstance(result, SeamAlignmentError):
                    raise result
                results[i] = result
        return results

    def _score_once(
        self, pairs: list[tuple[str, str]], model: str
    ) -> list[tuple[float, int] | SeamAlignmentError]:
        """Per (context, continuation) pair, the continuation's total logprob
        and token count, or the SeamAlignmentError of a pair whose seam does
        not fall on a token boundary. A single pair is sent as a plain string
        prompt, as scoring did before batching; several as an array."""
        prompts = [context + continuation for context, continuation in pairs]
        payload = {
            "model": model,
            "prompt": prompts if len(prompts) > 1 else prompts[0],
            "max_tokens": 0,
            "echo": True,
            "logprobs": 1,
            "temperature": 0.0,
        }
        data = self._post("/v1/completions", payload, object_hook=_compact_logprobs)
        choices = data.get("choices") if isinstance(data, dict) else None
        if not isinstance(choices, list) or len(choices) != len(prompts):
            count = len(choices) if isinstance(choices, list) else "no"
            raise EndpointError(200, f"expected {len(prompts)} completions choices, got {count}")
        ordered: list[dict | None] = [None] * len(prompts)
        for position, choice in enumerate(choices):
            index = choice.get("index", position) if isinstance(choice, dict) else None
            if not isinstance(index, int) or not 0 <= index < len(prompts) or ordered[index] is not None:
                raise EndpointError(200, f"completions choice {position} has no distinct index in the batch")
            ordered[index] = choice
        return [self._continuation_logprob(choice, len(context)) for choice, (context, _) in zip(ordered, pairs)]

    @staticmethod
    def _continuation_logprob(choice: dict, seam: int) -> tuple[float, int] | SeamAlignmentError:
        logprobs = choice.get("logprobs")
        if not logprobs or "token_logprobs" not in logprobs or "text_offset" not in logprobs:
            raise CapabilityError(
                "backend does not return echoed token logprobs; "
                "scoring requires a completions route with echo+logprobs support"
            )
        offsets = logprobs["text_offset"]
        start = int(np.searchsorted(offsets, seam))
        if start == len(offsets) or offsets[start] != seam:
            return SeamAlignmentError(f"continuation start (offset {seam}) does not fall on a token boundary")
        tail = logprobs["token_logprobs"][start:]
        if not len(tail) or np.isnan(tail).any():
            return SeamAlignmentError("missing logprobs for continuation tokens")
        return float(math.fsum(tail)), len(tail)


def _compact_logprobs(obj: dict) -> dict:
    """JSON object hook for completions bodies: each ``logprobs`` object keeps
    only its token logprobs (float array, NaN for a missing one) and text
    offsets (int array). The decoder calls it as soon as one choice's object is
    complete, so a batch's tokens are never all held as Python objects. On 8
    echoed contexts of a 401-sentence transcript the decoding peak fell from
    4.5 to 2.3 MB."""
    if "token_logprobs" in obj and "text_offset" in obj:
        return {
            "token_logprobs": np.array(obj["token_logprobs"], dtype=float),
            "text_offset": np.array(obj["text_offset"], dtype=np.int64),
        }
    return obj


# -- mock backend ----------------------------------------------------------

_KEY_SENTENCES_RE = re.compile(r"list of (\d+) key sentences", re.IGNORECASE)
_FENCE_RE = re.compile(r"^={4,}\s*$", re.MULTILINE)
_KEY_POINTS_MARKER = "key points:"


def _mock_document_body(prompt: str) -> str:
    fences = list(_FENCE_RE.finditer(prompt))
    if len(fences) >= 2:
        return prompt[fences[0].end() : fences[1].start()].strip()
    marker = "Report:"
    idx = prompt.rfind(marker)
    if idx >= 0:
        body = prompt[idx + len(marker) :]
        cut = body.find("You should only focus")
        if cut >= 0:
            body = body[:cut]
        return body.strip()
    return prompt.strip()


def _mock_key_points(prompt: str) -> list[str]:
    low = prompt.lower()
    idx = low.rfind(_KEY_POINTS_MARKER)
    if idx < 0:
        return []
    return numbered_items(prompt[idx + len(_KEY_POINTS_MARKER) :])


def echo_first_k(req: GenRequest) -> str:
    """Deterministic generation double.

    For highlight-extraction prompts it returns the first k document sentences
    as the numbered scaffold plus their concatenation as the summary; for
    stage-two prompts it summarizes by echoing the key points; for direct
    prompts it echoes the first two document sentences.
    """
    prompt = req.user_prompt
    body = _mock_document_body(prompt)
    sentences = [s.text for s in corpus.segment_sentences(corpus.normalize_text(body))]
    k_match = _KEY_SENTENCES_RE.search(prompt)
    if k_match:
        k = min(int(k_match.group(1)), len(sentences))
        chosen = sentences[:k]
        numbered = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(chosen))
        return f"Key Sentences:\n{numbered}\nSummary: {' '.join(chosen)}"
    points = _mock_key_points(prompt)
    if points:
        return "Summary: " + " ".join(points)
    chosen = sentences[:2] if sentences else ["ok."]
    return "Summary: " + " ".join(chosen)


def per_token_scorer(context: str, continuation: str) -> float:
    """Mock scoring contract: total logprob is -0.5 per whitespace token."""
    return -0.5 * len(continuation.split())


def overlap_scorer(context: str, continuation: str) -> float:
    """Mock scorer sensitive to ablations: the more continuation tokens are
    missing from the context, the lower the logprob."""
    cont_tokens = re.findall(r"[a-z0-9]+", continuation.lower())
    if not cont_tokens:
        return -1.0
    ctx_tokens = set(re.findall(r"[a-z0-9]+", context.lower()))
    missing = sum(1 for tok in cont_tokens if tok not in ctx_tokens)
    return -1.0 - missing / len(cont_tokens)


def no_summary(req: GenRequest) -> str:
    """Pathological double: never emits the "Summary:" marker (parse failures)."""
    return "The assistant rambles without following the requested structure."


_NAMED_GENERATORS: dict[str, Callable[[GenRequest], str]] = {
    "echo_first_k": echo_first_k,
    "no_summary": no_summary,
}
_NAMED_SCORERS: dict[str, Callable[[str, str], float]] = {
    "per_token": per_token_scorer,
    "overlap": overlap_scorer,
}


class MockBackend:
    """In-process backend for tests and deterministic runs.

    ``generate_fn`` maps a GenRequest to the completion text; ``score_fn``
    maps (context, continuation) to a total logprob. Both accept the names
    registered above. Records every request, a scored one with its context
    replaced by the context's ``prompt_hash`` (so a long run does not keep
    every ablated context alive), and counts calls, one per scoring batch.
    """

    def __init__(
        self,
        generate_fn: str | Callable[[GenRequest], str] = "echo_first_k",
        score_fn: str | Callable[[str, str], float] = "per_token",
    ):
        self.generate_fn = _NAMED_GENERATORS[generate_fn] if isinstance(generate_fn, str) else generate_fn
        self.score_fn = _NAMED_SCORERS[score_fn] if isinstance(score_fn, str) else score_fn
        self.requests: list[GenRequest | ScoreRequest] = []
        self.gen_calls = 0
        self.score_calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self.gen_calls + self.score_calls

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        with self._lock:
            self.gen_calls += 1
            self.requests.append(req)
        text = self.generate_fn(req)
        return text, len(req.user_prompt.split()), len(text.split())

    def score(self, req: ScoreRequest) -> tuple[float, int]:
        return self.score_many([req])[0]

    def score_many(self, reqs: list[ScoreRequest]) -> list[tuple[float, int]]:
        """One score call per batch, however many requests it holds."""
        recorded = [replace(req, context=prompt_hash(req.context)) for req in reqs]
        with self._lock:
            self.score_calls += 1
            self.requests.extend(recorded)
        return [
            (self.score_fn(req.context, req.continuation), max(len(req.continuation.split()), 1)) for req in reqs
        ]


def backend_from_url(
    base_url: str, api_key: str | None = None, timeout: float = DEFAULT_TIMEOUT, concurrency: int = 4
):
    """Build a backend from a base URL; ``mock://<generator>?scorer=<name>``
    selects the in-process mock. An HTTP backend keeps up to ``concurrency``
    connections open, one per client worker."""
    if base_url.startswith("mock://"):
        rest = base_url[len("mock://") :]
        name, _, query = rest.partition("?")
        scorer = "overlap"
        if query.startswith("scorer="):
            scorer = query[len("scorer=") :]
        return MockBackend(generate_fn=name or "echo_first_k", score_fn=scorer)
    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=concurrency)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return HTTPBackend(base_url, api_key=api_key, timeout=timeout, session=session)


def resolve_endpoint(base_url: str | None, api_key_env: str | None = None) -> tuple[str, str | None]:
    """Resolve the endpoint URL and key from config values and environment."""
    url = base_url or os.environ.get("HIGEN_API_BASE")
    if not url:
        raise ConfigError("no endpoint configured: set endpoint.base_url or HIGEN_API_BASE")
    key = os.environ.get(api_key_env) if api_key_env else os.environ.get("HIGEN_API_KEY")
    return url, key
