"""Uniform access to OpenAI-compatible endpoints.

Two capabilities are exposed: greedy text generation (chat-completions route)
and teacher-forced log-probability scoring of a fixed continuation
(completions route with echo + logprobs). Every backend request goes through
``LLMClient._send``: under the in-flight bound, retried on a transient
failure (after the backoff, or the server's ``Retry-After`` delay when that
is longer), with every HTTP post counted. The cache holds two kinds of
entry, both read by ``_cache_read`` and written by ``_cache_write``, so
interrupted experiments replay offline. A ``gen`` entry is one generation:
``generate`` reads it and on a miss sends the request and caches the answer,
holding a per-key lock, freed once its last caller leaves, so concurrent
identical generations share one backend call. A ``packed_score`` entry is one
attribution's, under ``packed_score_key``: its scores so far, in mask order,
and the fit's weights once all are scored. ``score_batch`` sends a scoring
request uncached, and the attribution rewrites its entry with
``write_attribution`` after each one and reads it with ``read_attribution``.
A missing or damaged entry is a miss. Scores go to the backend with an array
``prompt`` whose choices are mapped back by ``index``; a score is one float,
the continuation's total logprob. ``score_continuation`` is an uncached
one-context batch, kept for ``bench/layers.py``. A deterministic mock backend
makes the whole pipeline reproducible in tests and offline runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from . import corpus
from .errors import (
    CapabilityError,
    ConfigError,
    EndpointError,
    OversizeError,
    SeamAlignmentError,
    TransportError,
    is_number,
    require,
)
from .prompts import numbered_items

if TYPE_CHECKING:
    import requests

DEFAULT_TIMEOUT = 120.0
# The longest wait a Retry-After header can impose before the next attempt.
MAX_RETRY_AFTER = 60.0
# Attempt i waits base_delay * BACKOFF_FACTOR**i, scaled by a uniform draw
# from [1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER].
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.2

_OVERSIZE_RE = re.compile(r"context(\s|_)?(length|window)|maximum.*(length|tokens)|too (long|many tokens)", re.IGNORECASE)


@dataclass(frozen=True)
class GenRequest:
    model: str
    user_prompt: str
    max_tokens: int = 1024
    seed: int | None = None

    def __post_init__(self) -> None:
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
class RetryPolicy:
    attempts: int = 5
    base_delay: float = 1.0

    def __post_init__(self) -> None:
        require("attempts", self.attempts, lambda n: is_number(n, int) and n >= 1, "an integer >= 1")
        require("base_delay", self.base_delay, lambda d: is_number(d) and d >= 0, ">= 0")


class _Retryable(Exception):
    """Internal signal: transient failure worth another attempt, no sooner
    than ``retry_after`` seconds from now."""

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class Backend(Protocol):
    """What an ``LLMClient`` sends its requests to. A score is the one float
    the attribution needs, the continuation's total logprob."""

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        """Return (text, prompt_tokens, completion_tokens)."""

    def score_many(self, model: str, continuation: str, contexts: Sequence[str]) -> list[float]:
        """Return the total logprob of ``continuation`` after each context, in order."""


def _canonical_gen_key(req: GenRequest) -> str:
    # Requests carry no system prompt and always sample at temperature 0; the
    # payload keeps both as constants so existing gen caches still hit.
    payload = {
        "kind": "gen",
        "model": req.model,
        "system_prompt": None,
        "user_prompt": req.user_prompt,
        "temperature": 0.0,
        "max_tokens": req.max_tokens,
        "seed": req.seed,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


def packed_score_key(model: str, continuation: str, sentences: Sequence[str], masks: np.ndarray) -> str:
    """The cache key of one attribution's scores: the sha256 of the canonical
    JSON of the model, the continuation, every sentence and the shape of the
    boolean ``masks``, followed by the mask bits, eight to a byte. An ablated
    context depends only on the sentences its mask keeps, so the key changes
    whenever any scored context would."""
    payload = {
        "kind": "packed_score",
        "model": model,
        "continuation": continuation,
        "sentences": list(sentences),
        "shape": list(masks.shape),
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    digest.update(np.packbits(masks).tobytes())
    return digest.hexdigest()


def prompt_hash(prompt: str) -> str:
    """Short stable identifier for a prompt, safe to log (never the prompt itself)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


def write_atomically(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``: a reader sees the old file or the whole new one, never a part.
    The temporary name is unique per writer, so concurrent writers of one
    path never share it, and whichever rename lands last wins."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# The fields of a cached generation, in the order of the response's fields,
# with the types a usable entry holds.
_GEN_FIELDS = {"text": str, "prompt_tokens": int, "completion_tokens": int}


def _is_a(value: object, kind: type | tuple[type, ...]) -> bool:
    """Whether a cached value is a ``kind``; JSON's true and false load as
    bools, which are ints, but no cached count or logprob is a truth value."""
    return isinstance(value, kind) and not isinstance(value, bool)


# The HTTP posts of the current thread's backend call: ``_send`` resets it
# before each attempt, and ``HTTPBackend._post`` counts every post in it.
_posts = threading.local()


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
        self._key_locks: dict[str, list] = {}  # key: [its lock, the callers holding or awaiting it]
        self.backend_calls = 0
        self.cache_hits = 0

    # -- cache ------------------------------------------------------------

    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _cache_read(self, key: str, fields: dict[str, type]) -> dict | None:
        """The response cached under ``key``, or None on a miss: no cache, no
        entry, or a damaged one (not UTF-8 JSON, or a field of ``fields``
        (name: type) missing or of another type). A damaged entry is computed
        and written again."""
        if self.cache_dir is None:
            return None
        try:
            response = json.loads(self._cache_path(key).read_bytes().decode("utf-8"))["response"]
            usable = all(_is_a(response[name], kind) for name, kind in fields.items())
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None
        return response if usable else None

    def _cache_write(self, key: str, request: dict, response: dict) -> None:
        if self.cache_dir is not None:
            entry = json.dumps({"request": request, "response": response}, ensure_ascii=False)
            write_atomically(self._cache_path(key), entry)

    # -- the call paths ------------------------------------------------------

    def _send(self, call: Callable[[], Sequence]) -> Sequence:
        """``call()``, a backend request, under the in-flight bound. Each
        attempt counts as one backend call, or as the HTTP posts it sent when
        there were more; after a transient failure the next attempt waits the
        jittered exponential backoff, or the failure's ``Retry-After`` (at
        most ``MAX_RETRY_AFTER``) when that is longer."""
        last: _Retryable | None = None
        for attempt in range(self.retry.attempts):
            try:
                with self._semaphore:
                    _posts.count = 0
                    try:
                        return call()
                    finally:
                        with self._stats_lock:
                            self.backend_calls += max(_posts.count, 1)
            except _Retryable as exc:
                last = exc
                if attempt + 1 < self.retry.attempts:
                    delay = self.retry.base_delay * BACKOFF_FACTOR**attempt
                    delay *= 1.0 + random.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)
                    self._sleep(max(delay, min(exc.retry_after, MAX_RETRY_AFTER), 0.0))
        raise TransportError(f"retries exhausted after {self.retry.attempts} attempts: {last}")

    @contextlib.contextmanager
    def _key_lock(self, key: str):
        """Hold ``key``'s lock; its entry is freed once its last caller leaves."""
        with self._stats_lock:
            entry = self._key_locks.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._stats_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._key_locks[key]

    # -- public API --------------------------------------------------------

    def generate(self, req: GenRequest) -> GenResponse:
        """Generate, or replay the cached response. On a miss the request is
        sent (see ``_send``) and its answer cached. Concurrent callers of one
        request wait on its key, so the later ones read the first one's entry."""
        key = _canonical_gen_key(req)
        with self._key_lock(key):
            response = self._cache_read(key, _GEN_FIELDS)
            if response is not None:
                with self._stats_lock:
                    self.cache_hits += 1
                return GenResponse(*(response[name] for name in _GEN_FIELDS), latency_ms=0, cached=True)
            started = time.monotonic()
            values = self._send(lambda: self.backend.complete(req))
            latency_ms = int((time.monotonic() - started) * 1000)
            self._cache_write(key, {"kind": "gen", "key": key}, dict(zip(_GEN_FIELDS, values)))
        return GenResponse(*values, latency_ms=latency_ms, cached=False)

    def score_continuation(self, model: str, context: str, continuation: str) -> float:
        """The total logprob of ``continuation`` after ``context``: a
        ``score_batch`` of one context, uncached. Bench-only: nothing in
        ``higen`` calls it; ``bench/layers.py`` patches it."""
        return self.score_batch(model, continuation, [context])[0]

    def score_batch(self, model: str, continuation: str, contexts: Sequence[str]) -> list[float]:
        """The total logprob of ``continuation`` after each context, in order:
        one ``score_many`` request, sent and counted as ``_send`` does, and
        not cached (the attribution caches its scores itself)."""
        return self._send(lambda: self.backend.score_many(model, continuation, contexts))

    def read_attribution(self, key: str, m: int, n: int) -> tuple[list[float], list[float] | None]:
        """The scores cached so far under an attribution's ``key`` (see
        ``packed_score_key``), in mask order, at most ``m`` of them, and the
        fit's ``n`` weights cached beside all ``m``, read in one open. A
        missing or damaged entry (``total_logprob`` not a list of at most
        ``m`` numbers) holds no scores. The weights are None unless the entry
        holds all ``m`` scores and a list of ``n`` finite numbers beside
        them. Each cached score counts as one cache hit."""
        response = self._cache_read(key, {"total_logprob": list})
        scores = [] if response is None else response["total_logprob"]
        if len(scores) > m or not all(_is_a(score, (int, float)) for score in scores):
            return [], None
        with self._stats_lock:
            self.cache_hits += len(scores)
        weights = response.get("weights") if len(scores) == m else None
        if not (isinstance(weights, list) and len(weights) == n and all(map(is_number, weights))):
            weights = None
        return scores, weights

    def write_attribution(self, key: str, scores: Sequence[float], weights: Sequence[float] | None = None) -> None:
        """Cache an attribution's total logprobs ``scores`` under ``key`` as
        one entry, with the fit's ``weights`` unless they are None."""
        response = {"total_logprob": list(scores)}
        if weights is not None:
            response["weights"] = list(weights)
        self._cache_write(key, {"kind": "packed_score", "key": key}, response)


class HTTPBackend:
    """OpenAI-compatible HTTP backend: chat completions for generation,
    echoed completions with logprobs for teacher-forced scoring. ``requests``
    is imported here, so a process without an HTTP endpoint never loads it.

    A session the backend builds itself reads the endpoint's proxy (with
    ``NO_PROXY``), CA bundle and ``.netrc`` credentials from the environment
    once, here, as requests would on every request; an injected session is
    used as it is."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        session: requests.Session | None = None,
    ):
        import requests

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        if session is None:
            session = requests.Session()
            settings = session.merge_environment_settings(self.base_url, {}, None, None, None)
            session.proxies, session.verify = settings["proxies"], settings["verify"]
            session.auth = requests.utils.get_netrc_auth(self.base_url)
            session.trust_env = False
        self.session = session
        self._transport_errors = (requests.Timeout, requests.ConnectionError)

    def _post(self, path: str, payload: dict, **decode) -> dict:
        """POST a JSON payload, counted in ``_posts``; ``decode`` is passed on
        to the JSON decoder."""
        _posts.count = getattr(_posts, "count", 0) + 1
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self.session.post(
                f"{self.base_url}{path}", json=payload, headers=headers, timeout=self.timeout
            )
        except self._transport_errors as exc:
            raise _Retryable(f"transport failure: {exc}") from exc
        if resp.status_code in (429, 500, 502, 503, 504):
            wait = _retry_after(resp) if resp.status_code in (429, 503) else 0.0
            raise _Retryable(f"HTTP {resp.status_code}", wait)
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
        payload: dict = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.user_prompt}],
            "temperature": 0.0,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        data = self._post("/v1/chat/completions", payload)
        try:
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage") or {}
            counts = int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))
        except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise EndpointError(200, f"unexpected completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise EndpointError(200, f"completion content is {type(text).__name__}, not a string")
        try:
            text.encode("utf-8")  # a lone surrogate from a \u escape has no UTF-8 form to cache or record
        except UnicodeEncodeError as exc:
            raise EndpointError(200, f"completion content is not valid Unicode: {exc}") from exc
        return text, *counts

    def score(self, model: str, context: str, continuation: str) -> float:
        """Bench-only ``score_many`` of one context: ``bench/layers.py`` patches it."""
        return self.score_many(model, continuation, [context])[0]

    def score_many(self, model: str, continuation: str, contexts: Sequence[str]) -> list[float]:
        """Score ``continuation`` after each context in one completions
        request. A context whose seam falls inside a token is tried once
        more, with a space inserted at its seam (common BPE vocabularies
        start continuation tokens on the space); only those contexts are
        sent again."""
        results = self._score_once(model, continuation, contexts)
        misaligned = [i for i, result in enumerate(results) if isinstance(result, SeamAlignmentError)]
        if misaligned:
            spaced = [contexts[i] + " " for i in misaligned]
            for i, result in zip(misaligned, self._score_once(model, continuation, spaced)):
                if isinstance(result, SeamAlignmentError):
                    raise result
                results[i] = result
        return results

    def _score_once(self, model: str, continuation: str, contexts: Sequence[str]) -> list[float | SeamAlignmentError]:
        """Per context, the continuation's total logprob after it, or the
        SeamAlignmentError of a context whose seam does not fall on a token
        boundary. The prompts are sent as one array."""
        prompts = [context + continuation for context in contexts]
        payload = {
            "model": model,
            "prompt": prompts,
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
        return [self._continuation_logprob(choice, len(context)) for choice, context in zip(ordered, contexts)]

    @staticmethod
    def _continuation_logprob(choice: dict, seam: int) -> float | SeamAlignmentError:
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
        return math.fsum(tail)


def _retry_after(resp: requests.Response) -> float:
    """The delta-seconds of a response's ``Retry-After`` header; 0 when it is
    missing or not a number (an HTTP-date is not honoured)."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return 0.0
    return seconds if 0.0 <= seconds < math.inf else 0.0


def _compact_logprobs(obj: dict) -> dict:
    """JSON object hook for completions bodies: each ``logprobs`` object keeps
    only its token logprobs (float array, NaN for a missing one) and text
    offsets (int array). The decoder calls it as soon as one choice's object is
    complete, so a batch's tokens are never all held as Python objects. On 8
    echoed contexts of a 401-sentence transcript the decoding peak fell from
    4.5 to 2.3 MB. An offset that is not an integer (null, a fraction or a
    string), or a count of offsets other than the count of logprobs, is an
    EndpointError."""
    if "token_logprobs" in obj and "text_offset" in obj:
        try:
            logprobs = np.array(obj["token_logprobs"], dtype=float)
            offsets = np.array(obj["text_offset"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise EndpointError(200, f"malformed echoed logprobs: {exc}") from exc
        if offsets.dtype.kind != "i":
            raise EndpointError(200, f"malformed echoed logprobs: text offsets of dtype {offsets.dtype}, not integers")
        if offsets.ndim != 1 or logprobs.shape != offsets.shape:
            raise EndpointError(200, f"{logprobs.size} echoed logprobs against {offsets.size} text offsets")
        return {"token_logprobs": logprobs, "text_offset": offsets}
    return obj


# -- mock backend ----------------------------------------------------------

_KEY_SENTENCES_RE = re.compile(r"list of (\d+) key sentences", re.IGNORECASE)
_FENCE_RE = re.compile(r"^={4,}\s*$", re.MULTILINE)
_KEY_POINTS_MARKER = "key points:"
# The opening sentences of the two FactScore judge prompts
# (resources/templates/judge_extract_facts.txt and judge_verify_fact.txt).
_JUDGE_EXTRACT_OPENING = "You are given a summary. Decompose it into atomic facts."
_JUDGE_VERIFY_OPENING = "You are given a document and a statement."
_MOCK_SUPPORT_SHARE = 0.8


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


def _mock_judge(prompt: str) -> str | None:
    """The answer to a FactScore judge prompt, or None for any other prompt:
    the summary's sentences as numbered facts, and "Answer: yes" for a
    statement of which the document holds at least ``_MOCK_SUPPORT_SHARE``
    of the words ("Answer: no" otherwise)."""
    if prompt.startswith(_JUDGE_EXTRACT_OPENING):
        sentences = corpus.segment_sentences(corpus.normalize_text(prompt.rpartition("Summary:\n")[2]))
        return "\n".join(f"{i}. {sentence.text}" for i, sentence in enumerate(sentences, start=1))
    if prompt.startswith(_JUDGE_VERIFY_OPENING):
        document, _, statement = prompt.rpartition("\n\nStatement:\n")
        known = set(corpus.tokenize(document))
        words = corpus.tokenize(statement)
        supported = words and sum(word in known for word in words) >= _MOCK_SUPPORT_SHARE * len(words)
        return "Answer: yes" if supported else "Answer: no"
    return None


def echo_first_k(req: GenRequest) -> str:
    """Deterministic generation double.

    For highlight-extraction prompts it returns the first k document sentences
    as the numbered scaffold plus their concatenation as the summary; for
    stage-two prompts it summarizes by echoing the key points; for direct
    prompts it echoes the first two document sentences. FactScore judge
    prompts get the answers of ``_mock_judge``.
    """
    prompt = req.user_prompt
    judged = _mock_judge(prompt)
    if judged is not None:
        return judged
    body = _mock_document_body(prompt)
    k_match = _KEY_SENTENCES_RE.search(prompt)
    if k_match:
        chosen = _first_sentences(body, int(k_match.group(1)))
        numbered = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(chosen))
        return f"Key Sentences:\n{numbered}\nSummary: {' '.join(chosen)}"
    points = _mock_key_points(prompt)
    if points:
        return "Summary: " + " ".join(points)
    return "Summary: " + " ".join(_first_sentences(body, 2) or ["ok."])


def _first_sentences(body: str, count: int) -> list[str]:
    """The texts of the first ``count`` sentences of the normalized body,
    segmented from a prefix that grows (4,096 characters, then 4x) until it
    holds more than ``count`` sentences. Every sentence of a prefix but its last is a
    sentence of the whole text: a split depends only on the next non-space
    character and on the text before the split."""
    size = 4096
    while True:
        sentences = corpus.segment_sentences(corpus.normalize_text(body[:size]))
        if len(sentences) > count or size >= len(body):
            return [s.text for s in sentences[:count]]
        size *= 4


def overlap_scorer(context: str, continuation: str) -> float:
    """Mock scorer sensitive to ablations: the more continuation tokens are
    missing from the context, the lower the logprob."""
    words, known = corpus.tokenize(continuation), set(corpus.tokenize(context))
    return -1.0 - sum(word not in known for word in words) / len(words) if words else -1.0


class MockBackend:
    """The in-process backend of ``mock://`` (``MockBackend()``) and the tests.
    ``generate_fn`` maps a GenRequest to the completion text; ``score_fn``
    maps (context, continuation) to a total logprob. It keeps no requests,
    only call counts, one per scoring batch."""

    def __init__(
        self,
        generate_fn: Callable[[GenRequest], str] = echo_first_k,
        score_fn: Callable[[str, str], float] = overlap_scorer,
    ):
        self.generate_fn = generate_fn
        self.score_fn = score_fn
        self.gen_calls = 0
        self.score_calls = 0
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return self.gen_calls + self.score_calls

    def complete(self, req: GenRequest) -> tuple[str, int, int]:
        with self._lock:
            self.gen_calls += 1
        text = self.generate_fn(req)
        return text, len(req.user_prompt.split()), len(text.split())

    def score(self, model: str, context: str, continuation: str) -> float:
        """Bench-only ``score_many`` of one context: ``bench/layers.py`` patches it."""
        return self.score_many(model, continuation, [context])[0]

    def score_many(self, model: str, continuation: str, contexts: Sequence[str]) -> list[float]:
        """One score call per batch, however many contexts it holds."""
        with self._lock:
            self.score_calls += 1
        return [self.score_fn(context, continuation) for context in contexts]


def backend_from_url(
    base_url: str, api_key: str | None = None, timeout: float = DEFAULT_TIMEOUT, concurrency: int = 4
):
    """Build a backend from a base URL; ``mock://[echo_first_k][?scorer=overlap]``
    is ``MockBackend()``, any other ``mock://`` URL a ConfigError. An HTTP
    backend keeps up to ``concurrency`` connections open, one per client worker."""
    if base_url.startswith("mock://"):
        generator, _, query = base_url[len("mock://") :].partition("?")
        if generator not in ("", "echo_first_k") or query not in ("", "scorer=overlap"):
            raise ConfigError(f"unknown mock endpoint {base_url!r}; the mock is 'mock://echo_first_k?scorer=overlap'")
        return MockBackend()
    from requests.adapters import HTTPAdapter

    backend = HTTPBackend(base_url, api_key=api_key, timeout=timeout)
    adapter = HTTPAdapter(pool_maxsize=concurrency)
    backend.session.mount("http://", adapter)
    backend.session.mount("https://", adapter)
    return backend

