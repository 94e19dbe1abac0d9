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
one-context batch, kept for ``bench/layers.py``. ``HTTPBackend`` posts over
``_ConnectionPool``, pooled keep-alive ``http.client`` connections. A
deterministic mock backend makes the whole pipeline reproducible in tests and
offline runs.

Both cache keys are the sha256 of the same canonical JSON as ever
(``json.dumps(..., sort_keys=True, ensure_ascii=False)`` in UTF-8), so every
earlier entry still hits; the document-length strings in it (the prompt, the
sentences) are escaped on their UTF-8 bytes with ``bytes.replace`` and fed to
the digest in pieces, not built by ``json.dumps``. A cached entry's scores and
weights are checked by the set of their types and ``math.isfinite``, in C.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import random
import re
import select
import threading
import time
import urllib.parse
import weakref
import zlib
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Protocol, Sequence

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


# The C0 controls JSON escapes as ``\b``, ``\f``, ``\r`` or ``\u00XX``: all but tab and newline.
_JSON_ESCAPED_CONTROLS = bytes(range(0x20)).translate(None, b"\t\n")
# How JSON escapes the other characters it escapes, backslash first, then the
# NULs that join the texts into the separators between their JSON strings.
_JSON_ESCAPES = ((b"\\", b"\\\\"), (b'"', b'\\"'), (b"\n", b"\\n"), (b"\t", b"\\t"), (b"\x00", b'", "'))


def _hash_json_strings(digest, texts: Sequence[str]) -> None:
    """Feed ``digest`` what ``json.dumps(list(texts), ensure_ascii=False)``
    holds between its brackets, in UTF-8: each text as a JSON string, joined
    by ``", "``. The texts are escaped in one pass over their bytes, joined by
    NULs: when the only C0 controls are tab, newline and those NULs, escaping
    is five ``bytes.replace`` calls, each freeing the copy before it, so at
    most two copies of the texts are alive at once. Otherwise ``json.dumps``
    escapes each text."""
    if not texts:
        return
    data = "\x00".join(texts).encode("utf-8")
    if len(data) - len(data.translate(None, _JSON_ESCAPED_CONTROLS)) != len(texts) - 1:
        digest.update(", ".join(json.dumps(text, ensure_ascii=False) for text in texts).encode("utf-8"))
        return
    for char, escaped in _JSON_ESCAPES:
        data = data.replace(char, escaped)
    digest.update(b'"')
    digest.update(data)
    digest.update(b'"')


def _canonical_gen_key(req: GenRequest) -> str:
    """The sha256 of the request's canonical JSON (``json.dumps`` with
    ``sort_keys=True, ensure_ascii=False``, in UTF-8). ``user_prompt`` sorts
    last, so the prompt's JSON string is hashed after the other fields' JSON."""
    # Requests carry no system prompt and always sample at temperature 0; the
    # payload keeps both as constants so existing gen caches still hit.
    head = {
        "kind": "gen",
        "model": req.model,
        "system_prompt": None,
        "temperature": 0.0,
        "max_tokens": req.max_tokens,
        "seed": req.seed,
    }
    digest = hashlib.sha256(json.dumps(head, sort_keys=True, ensure_ascii=False)[:-1].encode("utf-8"))
    digest.update(b', "user_prompt": ')
    _hash_json_strings(digest, [req.user_prompt])
    digest.update(b"}")
    return digest.hexdigest()


def packed_score_key(model: str, continuation: str, sentences: Sequence[str], masks: np.ndarray) -> str:
    """The cache key of one attribution's scores: the sha256 of the canonical
    JSON of the model, the continuation, every sentence and the shape of the
    boolean ``masks``, followed by the mask bits, eight to a byte. An ablated
    context depends only on the sentences its mask keeps, so the key changes
    whenever any scored context would. The payload's keys sort as continuation,
    kind, model, sentences, shape, so its JSON is hashed in those pieces."""
    head = {"kind": "packed_score", "model": model, "continuation": continuation}
    digest = hashlib.sha256(json.dumps(head, sort_keys=True, ensure_ascii=False)[:-1].encode("utf-8"))
    digest.update(b', "sentences": [')
    _hash_json_strings(digest, sentences)
    digest.update(f'], "shape": {json.dumps(list(masks.shape))}}}'.encode("utf-8"))
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


# The types of a cached number: JSON numbers load as exactly these, and its
# true and false as bools, which are neither.
_NUMBER_TYPES = frozenset((int, float))


def _all_floats(values: list) -> bool:
    """Whether every cached value is a number in float range: the type of
    each is checked against a set, and an integer converted to a float, both
    in C. An integer too large for a float is damage, not a number."""
    types = set(map(type, values))
    if not _NUMBER_TYPES.issuperset(types):
        return False
    if int in types:
        try:
            list(map(float, values))
        except OverflowError:
            return False
    return True


def _all_finite(values: list) -> bool:
    """Whether every cached value is a finite number in float range."""
    return _all_floats(values) and all(map(math.isfinite, values))


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
                    self._sleep(max(delay, exc.retry_after, 0.0))
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
        ``m`` numbers in float range) holds no scores, so it is scored again
        and rewritten; a non-finite score is kept, a sample without a logit.
        The weights are None unless the entry holds all ``m`` scores and a
        list of ``n`` finite numbers beside them. Each cached score counts as
        one cache hit."""
        response = self._cache_read(key, {"total_logprob": list})
        scores = [] if response is None else response["total_logprob"]
        if len(scores) > m or not _all_floats(scores):
            return [], None
        with self._stats_lock:
            self.cache_hits += len(scores)
        weights = response.get("weights") if len(scores) == m else None
        if not (isinstance(weights, list) and len(weights) == n and _all_finite(weights)):
            weights = None
        return scores, weights

    def write_attribution(self, key: str, scores: Sequence[float], weights: Sequence[float] | None = None) -> None:
        """Cache an attribution's total logprobs ``scores`` under ``key`` as
        one entry, with the fit's ``weights`` unless they are None."""
        response = {"total_logprob": list(scores)}
        if weights is not None:
            response["weights"] = list(weights)
        self._cache_write(key, {"kind": "packed_score", "key": key}, response)


# What ``requests`` sends a ``json=`` payload as: ``json.dumps`` with allow_nan=False.
_JSON_BODY = json.JSONEncoder(allow_nan=False)


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")


def _netrc_auth(host: str) -> str | None:
    """The Basic credentials ``.netrc`` holds for ``host``, looked up as
    requests does: in the file ``NETRC`` names, else ``~/.netrc`` or
    ``~/_netrc``. None when there is no file or entry, or it does not parse."""
    import netrc

    names = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    path = next((path for path in map(os.path.expanduser, names) if os.path.exists(path)), None)
    try:
        entry = netrc.netrc(path).authenticators(host) if path else None
    except (netrc.NetrcParseError, OSError):
        return None
    return _basic_auth(entry[0] or entry[1], entry[2]) if entry else None


def _environment_proxy(scheme: str, netloc: str) -> str | None:
    """The proxy the environment names for ``scheme``: ``<scheme>_proxy``,
    else ``all_proxy`` (lower case first), unless ``no_proxy`` is ``*`` or
    holds a suffix of the host."""
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    if urllib.request.proxy_bypass_environment(netloc, proxies):
        return None
    return proxies.get(scheme) or proxies.get("all")


def _ssl_context(base_url: str):
    """A verifying TLS context that trusts ``REQUESTS_CA_BUNDLE``, else
    ``CURL_CA_BUNDLE``, else certifi's bundle, as requests does; a bundle
    that does not load is a ConfigError."""
    import ssl

    import certifi

    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or certifi.where()
    try:
        return ssl.create_default_context(**{"capath" if os.path.isdir(bundle) else "cafile": bundle})
    except OSError as exc:
        raise ConfigError(f"could not load the CA bundle {bundle} for {base_url}: {exc}") from exc


def _proxy_address(proxy: str, base_url: str) -> tuple[str, int, dict]:
    """The host, port and Proxy-Authorization header of an ``http://`` proxy
    URL (one without a scheme is one); any other proxy URL is a ConfigError."""
    parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        port = parts.port or 80
    except ValueError as exc:
        raise ConfigError(f"proxy {proxy!r} for {base_url}: {exc}") from exc
    if parts.scheme != "http" or not parts.hostname:
        raise ConfigError(f"proxy {proxy!r} for {base_url} is not an http:// proxy URL")
    headers = {}
    if parts.username is not None:
        credentials = map(urllib.parse.unquote, (parts.username, parts.password or ""))
        headers["Proxy-Authorization"] = _basic_auth(*credentials)
    return parts.hostname, port, headers


def _dropped(sock) -> bool:
    """Whether an idle connection's socket is readable: its server closed it,
    or sent what was not asked for. Either way it is not reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _exchange(conn, target: str, body: bytes, headers: dict, quickack: tuple | None) -> tuple[int, object, bytes]:
    """Send one POST on ``conn`` (connecting it if it is closed) and read the
    whole answer: its status, its headers and its body, decoded from gzip or
    deflate.

    Once the request is out, the socket option ``quickack`` (if any) puts the
    socket in quick-ACK mode, so the answer's first segment is acknowledged
    at once. A server that writes the headers and the body in two sends with
    Nagle's algorithm on (Python's ``http.server`` does) holds the body back
    until that ACK comes, which a delayed ACK puts off by up to 40 ms. The
    kernel does not keep the mode: our next send re-arms delayed ACKs, so it
    is set on every post."""
    conn.request("POST", target, body, headers)
    if quickack is not None:
        conn.sock.setsockopt(*quickack)
    response = conn.getresponse()
    content = response.read()
    encoding = (response.getheader("Content-Encoding") or "").strip().lower()
    try:
        if encoding in ("gzip", "x-gzip"):
            content = zlib.decompress(content, 16 + zlib.MAX_WBITS)
        elif encoding == "deflate":
            try:
                content = zlib.decompress(content)
            except zlib.error:  # raw deflate, as some servers send it
                content = zlib.decompress(content, -zlib.MAX_WBITS)
    except zlib.error as exc:
        import http.client

        raise http.client.HTTPException(f"undecodable {encoding} body: {exc}") from exc
    return response.status, response.msg, content


class _ConnectionPool:
    """Keep-alive ``http.client`` connections to the origin of ``base_url``
    (a URL without a trailing slash), at most ``size`` kept idle, reused
    newest first, each checked for a close by its server before reuse. If a
    reused one turns out closed before an answer came, the post is sent once
    more on a new connection; that is not a retry. The proxy (``HTTP_PROXY``,
    ``HTTPS_PROXY``, ``ALL_PROXY``, ``NO_PROXY``; CONNECT for HTTPS) and the
    CA bundle are read from the environment here, once. Every post must carry
    ``headers`` (the encodings the pool decodes, a proxy's credentials).
    After each request is sent its socket is set to acknowledge at once
    (``TCP_QUICKACK``, on Linux), so an answer is not held up by a delayed
    ACK. Redirects are not followed. A pool that is closed or dropped closes
    its idle connections."""

    def __init__(self, base_url: str, size: int, timeout: float):
        import http.client
        import socket

        parts = urllib.parse.urlsplit(base_url)
        try:
            port = parts.port
        except ValueError as exc:
            raise ConfigError(f"endpoint URL {base_url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.username is not None:
            raise ConfigError(f"endpoint URL {base_url!r} is not an http:// or https:// URL without credentials")
        self._size = size
        self.headers = {"Accept-Encoding": "gzip, deflate"}
        tls = {"context": _ssl_context(base_url)} if parts.scheme == "https" else {}
        connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        proxy = _environment_proxy(parts.scheme, parts.netloc)
        address, proxy_headers = (parts.hostname, port), {}
        if proxy is not None:
            *address, proxy_headers = _proxy_address(proxy, base_url)
        self._connection = partial(connection, *address, timeout=timeout, **tls)
        # Through a proxy, HTTPS goes through a CONNECT tunnel, HTTP to an absolute-form target.
        self._tunnel = (parts.hostname, port or 443, proxy_headers) if proxy and tls else None
        self._prefix = parts.path
        if proxy and not tls:
            self._prefix = base_url
            self.headers.update(proxy_headers)
        # TCP_QUICKACK is Linux's; elsewhere each answer may wait on a delayed ACK.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        self._quickack = None if quickack is None else (socket.IPPROTO_TCP, quickack, 1)
        self._lock = threading.Lock()
        self._idle: list = []
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def _checkout(self):
        """The newest idle connection its server has not closed, and True; or
        a new, unconnected one, and False."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _dropped(conn.sock):
                    return conn, True
                conn.close()
        conn = self._connection()
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn, False

    def _checkin(self, conn) -> None:
        with self._lock:
            if conn.sock is not None and len(self._idle) < self._size:
                self._idle.append(conn)
                return
        conn.close()

    def post(self, path: str, body: bytes, headers: dict) -> tuple[int, object, bytes]:
        """POST ``body`` to the route ``path`` under the base URL, with
        ``headers`` (``self.headers`` among them), and read the answer: its
        status, its headers and its body."""
        target = self._prefix + path
        conn, reused = self._checkout()
        try:
            try:
                answer = _exchange(conn, target, body, headers, self._quickack)
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                conn.close()
                answer = _exchange(conn, target, body, headers, self._quickack)
        except BaseException:
            conn.close()
            raise
        self._checkin(conn)
        return answer

    def close(self) -> None:
        """Close the idle connections."""
        _close_idle(self._idle, self._lock)


def _close_idle(idle: list, lock: threading.Lock) -> None:
    with lock:
        conns, idle[:] = idle[:], []
    for conn in conns:
        conn.close()


class HTTPBackend:
    """OpenAI-compatible HTTP backend: chat completions for generation,
    echoed completions with logprobs for teacher-forced scoring. Each post is
    ``session.post(path, body, headers) -> (status, headers, body)``, by
    default over a ``_ConnectionPool`` of ``concurrency`` connections, with
    headers fixed here: ``Authorization`` is the API key's, else ``.netrc``'s.
    Any 3xx, 4xx or 5xx answer but a transient one is an EndpointError."""

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        session=None,
        concurrency: int = 4,
    ):
        import http.client

        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.session = _ConnectionPool(self.base_url, concurrency, timeout) if session is None else session
        self._headers = {**self.session.headers, "Content-Type": "application/json"}
        auth = f"Bearer {api_key}" if api_key else _netrc_auth(urllib.parse.urlsplit(self.base_url).hostname)
        if auth:
            self._headers["Authorization"] = auth
        self._transport_errors = (OSError, http.client.HTTPException)

    def close(self) -> None:
        """Close the session's idle connections."""
        self.session.close()

    def _post(self, path: str, payload: dict, **decode) -> dict:
        """POST a JSON payload, counted in ``_posts``; ``decode`` is passed on
        to the JSON decoder. Only an error's body is decoded as text."""
        _posts.count = getattr(_posts, "count", 0) + 1
        body = _JSON_BODY.encode(payload).encode("utf-8")
        try:
            status, headers, content = self.session.post(path, body, self._headers)
        except self._transport_errors as exc:
            raise _Retryable(f"transport failure: {exc}") from exc
        if status in (429, 500, 502, 503, 504):
            raise _Retryable(f"HTTP {status}", _retry_after(headers) if status in (429, 503) else 0.0)
        if status >= 300:
            excerpt = content.decode("utf-8", "replace")[:200]
            if status == 400 and _OVERSIZE_RE.search(excerpt):
                raise OversizeError(f"backend rejected oversize request: {excerpt}")
            raise EndpointError(status, excerpt)
        try:
            return json.loads(content, **decode)
        except ValueError as exc:
            raise EndpointError(status, f"malformed JSON body: {content.decode('utf-8', 'replace')[:200]}") from exc

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
            counts = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise EndpointError(200, f"unexpected completion payload: {exc}") from exc
        if not all(is_number(count, int) and count >= 0 for count in counts):
            raise EndpointError(200, f"usage token counts {counts} are not integers >= 0")
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
            if not is_number(index, int) or not 0 <= index < len(prompts) or ordered[index] is not None:
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


def _retry_after(headers) -> float:
    """The wait an answer's ``Retry-After`` header asks for, in seconds: its
    delta-seconds, or the time left until its HTTP-date (RFC 9110 §10.2.3),
    at most ``MAX_RETRY_AFTER``. 0 when the header is missing or unreadable,
    or its date has passed."""
    value = headers.get("Retry-After", "")
    try:
        seconds = float(value)
    except ValueError:
        import email.utils

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return 0.0
        seconds = when.timestamp() - time.time()
    return min(seconds, MAX_RETRY_AFTER) if 0.0 <= seconds < math.inf else 0.0


def _compact_logprobs(obj: dict) -> dict:
    """JSON object hook for completions bodies: each ``logprobs`` object keeps
    only its token logprobs (float array, NaN for a missing one) and text
    offsets (int array). The decoder calls it as soon as one choice's object is
    complete, so a batch's tokens are never all held as Python objects. On 8
    echoed contexts of a 401-sentence transcript the decoding peak fell from
    4.5 to 2.3 MB. An offset that is not an integer (null, a fraction or a
    string), a count of offsets other than the count of logprobs, or a true
    or false among either, is an EndpointError."""
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
        # numpy reads [0, true, 5] as [0, 1, 5]; ``in`` scans the two lists' types in C.
        if bool in map(type, chain(obj["text_offset"], obj["token_logprobs"])):
            raise EndpointError(200, "malformed echoed logprobs: true or false in place of a number")
        return {"token_logprobs": logprobs, "text_offset": offsets}
    return obj


# -- mock backend ----------------------------------------------------------

_KEY_SENTENCES_RE = re.compile(r"list of (\d+) key sentences", re.IGNORECASE)
# The same search in the lowercase of an ASCII prompt, where case cannot differ.
_LOWER_KEY_SENTENCES_RE = re.compile(r"list of (\d+) key sentences")
_FENCE_RE = re.compile(r"^={4,}\s*$", re.MULTILINE)
_KEY_POINTS_MARKER = "key points:"
# The last marker in any case: the greedy prefix backtracks from the end.
_LAST_KEY_POINTS_RE = re.compile(r"(?s:.*)" + _KEY_POINTS_MARKER, re.IGNORECASE)
# An ASCII byte as a space where ``str.split()`` splits (\t-\r, \x1c-\x1f
# and the space), else as an "x".
_WORD_MARKS = bytes(0x20 if chr(byte).isspace() else 0x78 for byte in range(128)) + b"x" * 128
# The opening sentences of the two FactScore judge prompts
# (resources/templates/judge_extract_facts.txt and judge_verify_fact.txt).
_JUDGE_EXTRACT_OPENING = "You are given a summary. Decompose it into atomic facts."
_JUDGE_VERIFY_OPENING = "You are given a document and a statement."
_MOCK_SUPPORT_SHARE = 0.8


def _missing_words(text: str, words: list[str]) -> int:
    """How many of ``words`` (tokens, repeats counted) are not tokens of
    ``text``. A word is a token of the text exactly when it occurs, with a
    space on each side, in the space-padded ``corpus.token_bytes`` of the
    text, so each distinct word is one substring search and the text is never
    split into tokens."""
    padded = b" " + corpus.token_bytes(text) + b" "
    absent = {word for word in set(words) if f" {word} ".encode() not in padded}
    return sum(word in absent for word in words)


def _word_count(text: str) -> int:
    """``len(text.split())``. An ASCII text's words are counted by their
    starts in one byte translation, without building the words."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_WORD_MARKS)
    return marks.count(b" x") + marks.startswith(b"x")


def _mock_document_body(prompt: str) -> str:
    # A fence line holds "====", so a prompt without it has no fence to find.
    fences = list(_FENCE_RE.finditer(prompt)) if "====" in prompt else []
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


def _mock_key_points(prompt: str, low: str | None) -> list[str]:
    """The numbered items after the prompt's last "key points:", in any case.
    ``low`` is the lowercase of an ASCII prompt, whose offsets are the
    prompt's, or None for any other prompt, which is searched
    case-insensitively itself: its lowercase may be longer (U+0130 lowercases
    to two characters), so an offset found there may miss the marker."""
    if low is not None:
        start = low.rfind(_KEY_POINTS_MARKER)
        return numbered_items(prompt[start + len(_KEY_POINTS_MARKER) :]) if start >= 0 else []
    match = _LAST_KEY_POINTS_RE.match(prompt)
    return numbered_items(prompt[match.end() :]) if match else []


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
        words = corpus.tokenize(statement)
        supported = words and len(words) - _missing_words(document, words) >= _MOCK_SUPPORT_SHARE * len(words)
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
    # One lowercase copy of an ASCII prompt serves both searches. Any other
    # prompt keeps the IGNORECASE search, which also matches ſ, ı and İ where
    # lower() leaves them non-ASCII.
    low = prompt.lower() if prompt.isascii() else None
    k_match = _KEY_SENTENCES_RE.search(prompt) if low is None else _LOWER_KEY_SENTENCES_RE.search(low)
    if k_match:
        chosen = _first_sentences(body, int(k_match.group(1)))
        numbered = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(chosen))
        return f"Key Sentences:\n{numbered}\nSummary: {' '.join(chosen)}"
    points = _mock_key_points(prompt, low)
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
    words = corpus.tokenize(continuation)
    return -1.0 - _missing_words(context, words) / len(words) if words else -1.0


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
        return text, _word_count(req.user_prompt), len(text.split())

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
    return HTTPBackend(base_url, api_key=api_key, timeout=timeout, concurrency=concurrency)
