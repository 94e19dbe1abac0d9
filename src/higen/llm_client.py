"""Uniform access to OpenAI-compatible endpoints.

Two capabilities are exposed: greedy text generation (chat-completions route)
and teacher-forced log-probability scoring of a fixed continuation
(completions route with echo + logprobs). Both go through one call path,
``LLMClient._cached``, which answers one cache key: it reads the key's entry;
on a miss it builds the request once, sends it to the backend under the
in-flight bound, retried on a transient failure (after the backoff, or the
server's ``Retry-After`` delay when that is longer), counts every HTTP post
and every hit, and caches the answer under the key, so interrupted
experiments replay offline. ``generate`` holds a per-key lock, freed once
its last caller leaves, so concurrent identical generations share one
backend call. Scores go to the backend with an array ``prompt`` whose
choices are mapped back by ``index``. ``_GEN_FIELDS`` and ``_SCORE_FIELDS``
describe each route's cached response; a missing or damaged entry is a miss,
and a hit is read in one open, read and close. A score is one float, the
continuation's total logprob, and a score entry holds total logprobs only.
An entry written when scores also carried a token count still hits, its
counts unread; an entry written now has no counts, so a version that still
reads them misses it and scores again. The score-cache key formats live
here alone. A single context's key is the sha256 of the canonical JSON of
its model, context and continuation. A packed entry holds many scores as
one list: ``packed_scores`` reads, and on a miss sends, the scores of one
scoring request of an attribution under a ``request_score_keys`` key (the
model, the continuation, every sentence, and that request's masks); it also
reads a whole attribution's scores under its ``packed_score_key``, which
``write_packed_scores`` writes once they are known to fit, so a warm
attribution reads one file. A deterministic mock backend makes the whole
pipeline reproducible in tests and offline runs.
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
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

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
    the attribution needs, the continuation's total logprob, and that is all
    a score cache entry holds."""

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


def _canonical_score_key(model: str, context: str, continuation: str) -> str:
    payload = {"kind": "score", "model": model, "context": context, "continuation": continuation}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


def _sentences_digest(kind: str, model: str, continuation: str, sentences: Sequence[str], **more):
    """The sha256 of the canonical JSON of ``kind``, the model, the
    continuation, every sentence and ``more``, ready for further updates."""
    payload = {"kind": kind, "model": model, "continuation": continuation, "sentences": list(sentences), **more}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8"))


def packed_score_key(model: str, continuation: str, sentences: Sequence[str], masks: np.ndarray) -> str:
    """The cache key of one attribution's packed scores: the sha256 of the
    canonical JSON of the model, the continuation, every sentence and the
    shape of the boolean ``masks``, followed by the mask bits, eight to a
    byte. An ablated context depends only on the sentences its mask keeps,
    so the key changes whenever any scored context would."""
    digest = _sentences_digest("packed_score", model, continuation, sentences, shape=list(masks.shape))
    digest.update(np.packbits(masks).tobytes())
    return digest.hexdigest()


def request_score_keys(
    model: str, continuation: str, sentences: Sequence[str], masks: np.ndarray, runs: Iterable[range]
) -> list[str]:
    """The cache keys of an attribution's scoring requests, one per run of
    mask rows: the canonical JSON of the model, the continuation and every
    sentence, hashed once, followed by the run's row count and its mask
    bits, eight to a byte. A key follows the masks its request holds, so
    splitting the masks at other rows changes it."""
    head = _sentences_digest("request_score", model, continuation, sentences)
    keys = []
    for run in runs:
        digest = head.copy()
        digest.update(b"%d:" % len(run))
        digest.update(np.packbits(masks[run.start : run.stop]).tobytes())
        keys.append(digest.hexdigest())
    return keys


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


# The first read of a cache entry; a score entry is about 150 bytes.
_READ_SIZE = 16384


def _read_to_end(descriptor: int) -> bytes:
    """The rest of a regular file: reads of doubling size until one comes back
    short, which on a regular file means its end."""
    size = _READ_SIZE
    parts = [os.read(descriptor, size)]
    while len(parts[-1]) == size:
        size *= 2
        parts.append(os.read(descriptor, size))
    return b"".join(parts)


# The fields of a cached response, in the order of the response's fields,
# with the types a usable entry holds. A packed score entry holds one list per
# score field, each value of the field's type.
_GEN_FIELDS = {"text": str, "prompt_tokens": int, "completion_tokens": int}
_SCORE_FIELDS = {"total_logprob": (int, float)}


def _is_a(value: object, kind: type | tuple[type, ...]) -> bool:
    """Whether a cached value is a ``kind``; JSON's true and false load as
    bools, which are ints, but no cached count or logprob is a truth value."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_packed(column: object, kind: type | tuple[type, ...], count: int) -> bool:
    """Whether a cached value is a list of ``count`` values, each a ``kind``."""
    return isinstance(column, list) and len(column) == count and all(_is_a(value, kind) for value in column)


# The HTTP posts of the current thread's backend call: ``_cached`` resets it
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

    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_read(
        self, key: str, fields: dict[str, type | tuple[type, ...]], count: int | None = None
    ) -> list | None:
        """The values of ``fields`` (name: type) in the cached response under
        ``key``, or None on a miss: no cache, no entry, or a damaged one (not
        UTF-8 JSON, or a field missing or of another type). With ``count``
        the entry is packed, and each field holds a list of ``count`` values
        of its type. A damaged entry is computed and written again. The entry
        is read through the bare descriptor, with no file object: an entry
        that fits the first read costs one open, one read and one close."""
        if self.cache_dir is None:
            return None
        try:
            descriptor = os.open(self._cache_path(key), os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            data = _read_to_end(descriptor)
        finally:
            os.close(descriptor)
        try:
            response = json.loads(data.decode("utf-8"))["response"]
            values = [response[name] for name in fields]
        except (ValueError, KeyError, TypeError):
            return None
        if count is None:
            usable = all(map(_is_a, values, fields.values()))
        else:
            usable = all(_is_packed(column, kind, count) for column, kind in zip(values, fields.values()))
        return values if usable else None

    def _cache_write(self, key: str, request: dict, response: dict) -> None:
        if self.cache_dir is not None:
            entry = json.dumps({"request": request, "response": response}, ensure_ascii=False)
            write_atomically(self._cache_path(key), entry)

    # -- the one call path --------------------------------------------------

    def _cached(
        self,
        kind: str,
        key: str,
        fields: dict[str, type | tuple[type, ...]],
        build: Callable[[], object] | None,
        send: Callable[[object], Sequence],
        count: int | None = None,
    ) -> tuple[Sequence | None, int | None]:
        """The response values (``fields``, in order) under ``key``, and the
        ms the backend call took (None on a hit). With ``count`` the entry is
        packed (see ``_cache_read``) and a hit counts as ``count`` cache hits.
        On a miss ``build()`` makes the request, once for all attempts, and
        ``send`` takes it to the backend under the in-flight bound; without
        ``build`` a miss is None and nothing is sent. Each attempt counts as
        one backend call, or as the HTTP posts it sent when there were more;
        after a transient failure the next attempt waits the jittered
        exponential backoff, or the failure's ``Retry-After`` (at most
        ``MAX_RETRY_AFTER``) when that is longer. The answer is cached."""
        values = self._cache_read(key, fields, count)
        if values is not None:
            with self._stats_lock:
                self.cache_hits += count or 1
            return values, None
        if build is None:
            return None, None
        request = build()
        started = time.monotonic()
        last: _Retryable | None = None
        for attempt in range(self.retry.attempts):
            try:
                with self._semaphore:
                    _posts.count = 0
                    try:
                        answer = send(request)
                    finally:
                        with self._stats_lock:
                            self.backend_calls += max(_posts.count, 1)
                break
            except _Retryable as exc:
                last = exc
                if attempt + 1 < self.retry.attempts:
                    delay = self.retry.base_delay * BACKOFF_FACTOR**attempt
                    delay *= 1.0 + random.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)
                    self._sleep(max(delay, min(exc.retry_after, MAX_RETRY_AFTER), 0.0))
        else:
            raise TransportError(f"retries exhausted after {self.retry.attempts} attempts: {last}")
        latency_ms = int((time.monotonic() - started) * 1000)
        self._cache_write(key, {"kind": kind, "key": key}, dict(zip(fields, answer)))
        return answer, latency_ms

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
        """Generate, or replay the cached response. Concurrent callers of one
        request wait on its key, so the later ones read the first one's entry."""
        key = _canonical_gen_key(req)
        with self._key_lock(key):
            values, latency_ms = self._cached("gen", key, _GEN_FIELDS, lambda: req, self.backend.complete)
        return GenResponse(*values, latency_ms=latency_ms or 0, cached=latency_ms is None)

    def score_continuation(self, model: str, context: str, continuation: str) -> float:
        """The total logprob of ``continuation`` after ``context``, cached under
        its ``_canonical_score_key``. Bench-only: nothing in ``higen`` calls
        it; ``bench/layers.py`` patches it."""

        def send(contexts: list[str]) -> list[float]:
            return self.backend.score_many(model, continuation, contexts)

        key = _canonical_score_key(model, context, continuation)
        [score], _ = self._cached("score", key, _SCORE_FIELDS, lambda: [context], send)
        return score

    def packed_scores(
        self,
        key: str,
        count: int,
        build: Callable[[], tuple[str, str, list[str]]] | None = None,
    ) -> list[float] | None:
        """The ``count`` total logprobs cached as one packed entry under
        ``key``, in order: those of one scoring request (see
        ``request_score_keys``) or of a whole attribution (see
        ``packed_score_key``). A hit counts as ``count`` cache hits. On a
        miss, ``build()`` makes the (model, continuation, ``count`` contexts)
        batch, which goes to the backend as one request and is cached under
        ``key``; without ``build`` a miss is None."""
        columns, _ = self._cached(
            "packed_score", key, _SCORE_FIELDS, build, lambda batch: [self.backend.score_many(*batch)], count
        )
        return None if columns is None else columns[0]

    def write_packed_scores(self, key: str, scores: Sequence[float]) -> None:
        """Cache the total logprobs ``scores`` under ``key`` as one packed entry."""
        self._cache_write(key, {"kind": "packed_score", "key": key}, {"total_logprob": list(scores)})


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

