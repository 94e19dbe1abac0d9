from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from higen import llm_client, pipeline, runner
from higen.corpus import make_document, normalize_text, segment_sentences
from higen.errors import CapabilityError, ConfigError, EndpointError, OversizeError, TransportError
from higen.llm_client import (
    GenRequest,
    HTTPBackend,
    LLMClient,
    MAX_RETRY_AFTER,
    MockBackend,
    RetryPolicy,
    _canonical_gen_key,
    _GEN_FIELDS,
    _Retryable,
    backend_from_url,
    echo_first_k,
    overlap_scorer,
    packed_score_key,
    prompt_hash,
)

from conftest import DATA_DIR, RecordingBackend, make_mock_client, per_token_scorer


def _gov_prompt(doc_text: str, k: int | None = None) -> str:
    head = (
        f"Extract a list of {k} key sentences from the input document and then write a summary. "
        'You must answer "Key Sentences: ... Summary: ..."'
        if k
        else 'Write a summary. You must answer "Summary: ..."'
    )
    return f"{head}\n\nReport:\n{doc_text}"


class TestMockContract:
    def test_echo_first_k_lists_first_sentences(self):
        doc = make_document("d", "Apple one. Banana two. Cherry three.")
        text = echo_first_k(GenRequest(model="m", user_prompt=_gov_prompt(doc.normalized_text, k=2)))
        assert "Key Sentences:" in text
        assert "1. Apple one." in text
        assert "2. Banana two." in text
        assert "Cherry" not in text.split("Summary:")[0].split("2. Banana two.")[1]
        assert text.endswith("Summary: Apple one. Banana two.")

    def test_direct_prompt_gets_summary_only(self):
        text = echo_first_k(GenRequest(model="m", user_prompt=_gov_prompt("Apple one. Banana two. Cherry three.")))
        assert text.startswith("Summary: ")
        assert "Key Sentences:" not in text

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["Word", "word", "Dr.", "e.g.", "U.S.", "7", ".", "!", "?!", "...", " ", "  ", "\n", "\r\n", "\r", "\t"]
                + ["(", '"', "\x07", "É"]
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(4097, 24000),
        st.integers(1, 400),
    )
    def test_answers_from_a_prefix_equal_the_whole_text_segmented(self, pieces, size, k):
        # a space per unit keeps the regex's backtracking over runs of
        # terminal marks short
        unit = "".join(pieces) + " "
        body = (unit * (size // len(unit) + 1))[:size]
        whole = [s.text for s in segment_sentences(normalize_text(body.strip()))]
        planned = echo_first_k(GenRequest(model="m", user_prompt=_gov_prompt(body, k=k)))
        numbered = "\n".join(f"{i}. {text}" for i, text in enumerate(whole[:k], start=1))
        assert planned == f"Key Sentences:\n{numbered}\nSummary: {' '.join(whole[:k])}"
        direct = echo_first_k(GenRequest(model="m", user_prompt=_gov_prompt(body)))
        assert direct == "Summary: " + " ".join(whole[:2] or ["ok."])

    def test_per_token_scorer_contract(self, tmp_path):
        client, _ = make_mock_client(tmp_path)
        assert client.score_continuation("m", "x", "a b c") == pytest.approx(-1.5)

    def test_per_token_scorer_empty_context(self, tmp_path):
        client, _ = make_mock_client(tmp_path)
        assert client.score_continuation("m", "", "a") == pytest.approx(-0.5)

    def test_score_additivity_over_prefixes(self):
        # per-token mock: score of the whole equals the sum of per-token increments
        words = "w1 w2 w3 w4".split()
        total = per_token_scorer("ctx", " ".join(words))
        increments = []
        for i in range(1, len(words) + 1):
            prev = per_token_scorer("ctx", " ".join(words[:i - 1])) if i > 1 else 0.0
            increments.append(per_token_scorer("ctx", " ".join(words[:i])) - prev)
        assert sum(increments) == pytest.approx(total)

    def test_request_invariants(self):
        with pytest.raises(ValueError):
            GenRequest(model="m", user_prompt="p", max_tokens=0)


class TestCache:
    def test_identical_request_served_from_cache(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        req = GenRequest(model="m", user_prompt="Summary please.\n\nReport:\nA. B.")
        first = client.generate(req)
        calls_after_first = backend.gen_calls
        second = client.generate(req)
        assert not first.cached
        assert second.cached
        assert second.text == first.text
        assert backend.gen_calls == calls_after_first

    def test_cache_survives_client_restart(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        req = GenRequest(model="m", user_prompt="Summary.\n\nReport:\nA.")
        client.generate(req)
        client2, backend2 = make_mock_client(tmp_path)
        response = client2.generate(req)
        assert response.cached
        assert backend2.gen_calls == 0

    def test_field_perturbations_never_collide(self):
        base = GenRequest(model="m", user_prompt="p", max_tokens=10, seed=1)
        variants = [
            GenRequest(model="m2", user_prompt="p", max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p2", max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p", max_tokens=11, seed=1),
            GenRequest(model="m", user_prompt="p", max_tokens=10, seed=2),
            GenRequest(model="m", user_prompt="p", max_tokens=10, seed=None),
        ]
        keys = {_canonical_gen_key(r) for r in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_gen_key_is_pinned(self):
        # The key payload still holds "system_prompt": null and
        # "temperature": 0.0, so caches written before those request fields
        # were removed keep hitting.
        req = GenRequest(model="mock-model", user_prompt="Summarize the report.\n\nReport:\nA. B.", max_tokens=1200, seed=0)
        assert _canonical_gen_key(req) == "d4a05770aa192bba8c36d7721212cc2b08003002049566657d74c65f892c074e"

    def test_entry_bytes_are_pinned(self, tmp_path):
        # One entry per generation: {"request": {kind, key}, "response": the
        # route's fields in order}, so caches written before keep hitting.
        client, _ = make_mock_client(tmp_path)
        gen = client.generate(GenRequest(model="m", user_prompt="Report:\nAlpha one. Beta two."))
        gen_key = _canonical_gen_key(GenRequest(model="m", user_prompt="Report:\nAlpha one. Beta two."))
        assert (tmp_path / "cache" / f"{gen_key}.json").read_text(encoding="utf-8") == (
            f'{{"request": {{"kind": "gen", "key": "{gen_key}"}}, "response": '
            '{"text": "Summary: Alpha one. Beta two.", "prompt_tokens": 5, "completion_tokens": 5}}'
        )
        assert not gen.cached

    def test_a_large_generation_entry_round_trips(self, tmp_path):
        # Every byte of a 200 KB entry must come back.
        text = "".join(f"Sentence {i} says \u00e9\u4e2d\U0001f642 \"quoted\" \\ text.\n" for i in range(5000))
        assert len(text.encode("utf-8")) > 200_000
        client, _ = make_mock_client(tmp_path)
        client._cache_write("big", {"kind": "gen", "key": "big"}, {"text": text, "prompt_tokens": 7, "completion_tokens": 9})
        assert client._cache_read("big", _GEN_FIELDS) == {"text": text, "prompt_tokens": 7, "completion_tokens": 9}

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        client, backend = make_mock_client(tmp_path)

        def refuse(source, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="No space left"):
            client.generate(GenRequest(model="m", user_prompt="Summary please.\n\nReport:\nA. B."))
        assert backend.gen_calls == 1
        assert list((tmp_path / "cache").iterdir()) == []

    def test_offline_replay_with_dead_backend(self, tmp_path):
        # record once, then replay the golden cache with a backend that
        # would fail if it were ever reached
        client, _ = make_mock_client(tmp_path)
        req = GenRequest(model="m", user_prompt="Say OK.")
        recorded = client.generate(req)
        assert recorded.text

        class _DeadBackend:
            def complete(self, req):
                raise AssertionError("network reached during replay")

            def score(self, req):
                raise AssertionError("network reached during replay")

        replay_client = LLMClient(_DeadBackend(), cache_dir=tmp_path / "cache")
        replayed = replay_client.generate(req)
        assert replayed.cached
        assert replayed.text == recorded.text


def _plain_packed_key(model: str, continuation: str, sentences: list[str], masks: np.ndarray) -> str:
    """The packed score key as it was first defined, the oracle that keeps
    the attribution entries of every earlier version hitting."""
    head = {"kind": "packed_score", "model": model, "continuation": continuation, "sentences": sentences}
    head["shape"] = list(masks.shape)
    digest = hashlib.sha256(json.dumps(head, sort_keys=True, ensure_ascii=False).encode("utf-8"))
    digest.update(np.packbits(masks).tobytes())
    return digest.hexdigest()


# Characters JSON escapes (quote, backslash, every control character below
# U+0020), ones it leaves alone although they are special elsewhere (DEL,
# U+0085, U+2028, U+2029, a BOM), and non-ASCII text up to the astral planes.
_KEY_ALPHABET = [chr(c) for c in range(0x20)] + list('"\\/ .:aZ9\x7f\x85\u2028\u2029\ufeffé中\u0301🙂')
_KEY_TEXT = st.text(alphabet=st.sampled_from(_KEY_ALPHABET), max_size=24)
_KEY_SENTENCE = st.one_of(_KEY_TEXT, st.builds(lambda speaker, text: f"{speaker}: {text}", _KEY_TEXT, _KEY_TEXT))


class TestScoreKey:
    @settings(max_examples=200, deadline=None)
    @given(
        sentences=st.lists(_KEY_SENTENCE, min_size=1, max_size=12),
        bits=st.lists(st.booleans(), min_size=12, max_size=12),
        model=_KEY_TEXT,
        continuation=_KEY_TEXT.filter(bool),
    )
    def test_the_packed_key_equals_its_first_formula(self, sentences, bits, model, continuation):
        masks = np.array([[True] * len(sentences), bits[: len(sentences)]], dtype=bool)
        assert packed_score_key(model, continuation, sentences, masks) == _plain_packed_key(
            model, continuation, sentences, masks
        )

    def test_the_packed_key_changes_whenever_a_per_context_key_would(self):
        sentences = ["Ann: One two.", 'Three "four".', "Caf\u00e9 five.", "Six\nseven."]
        masks = np.array([[1, 1, 1, 1], [1, 0, 1, 0], [0, 1, 1, 0]], dtype=bool)
        key = packed_score_key("m", "The draft.", sentences, masks)
        assert packed_score_key("m", "The draft.", list(sentences), masks.copy()) == key
        variants = [
            packed_score_key("m2", "The draft.", sentences, masks),
            packed_score_key("m", "The draft!", sentences, masks),
            packed_score_key("m", "The draft.", sentences, masks[:2]),
            # The same text split at another sentence boundary.
            packed_score_key("m", "The draft.", ["Ann: One", 'two. Three "four".', *sentences[2:]], masks),
        ]
        for index in range(len(sentences)):
            edited = list(sentences)
            edited[index] += " More."
            variants.append(packed_score_key("m", "The draft.", edited, masks))
        for bit in np.ndindex(masks.shape):
            flipped = masks.copy()
            flipped[bit] = not flipped[bit]
            variants.append(packed_score_key("m", "The draft.", sentences, flipped))
        assert len({key, *variants}) == len(variants) + 1 == 21

    def test_a_given_key_is_used_and_not_compared(self, tmp_path):
        # An attribution's entry is cached under the key it is given; nothing
        # recomputes a key from the scores it holds.
        client, backend = make_mock_client(tmp_path)
        client.write_attribution("0" * 64, [-1.0])
        assert [path.stem for path in (tmp_path / "cache").glob("*.json")] == ["0" * 64]
        assert client.read_attribution("0" * 64, 2, 1) == ([-1.0], None)

    def test_recording_backend_records_a_scored_context_by_its_hash(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        assert isinstance(backend, RecordingBackend)
        context = "A long ablated context. " * 50
        client.score_batch("m", "a b", [context])
        [recorded] = backend.requests
        assert recorded == ("m", "a b", [prompt_hash(context)])


_DAMAGED_BODIES = {
    "not_an_object": b"[1, 2]",
    "not_utf8": b"\xff\xfe{\xfa",
    "missing_field": b'{"request": {}, "response": {"prompt_tokens": 1}}',
    "wrong_type": b'{"request": {}, "response": {"text": 7, "prompt_tokens": 1, "completion_tokens": 1}}',
    "truncated": b'{"request": {"kind": "gen"}, "response": {"text": "Summ',
}


class TestDamagedCacheEntry:
    @pytest.mark.parametrize("body", list(_DAMAGED_BODIES.values()), ids=list(_DAMAGED_BODIES))
    def test_is_a_miss_that_is_written_again(self, tmp_path, body):
        req = GenRequest(model="m", user_prompt="Summary please.\n\nReport:\nA. B.")
        call = lambda client: client.generate(req).text  # noqa: E731
        first, _ = make_mock_client(tmp_path)
        expected = call(first)
        [entry] = (tmp_path / "cache").glob("*.json")
        entry.write_bytes(body)
        client, backend = make_mock_client(tmp_path)
        assert call(client) == expected
        assert backend.calls == 1 and client.cache_hits == 0
        assert call(client) == expected
        assert backend.calls == 1 and client.cache_hits == 1


class _CountingBackend:
    """Tracks the maximum number of concurrent in-flight calls."""

    def __init__(self):
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()

    def complete(self, req):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.02)
        with self._lock:
            self.in_flight -= 1
        return "Summary: ok", 1, 1

    def score(self, req):
        return -1.0, 1


class TestConcurrencyBound:
    def test_in_flight_never_exceeds_bound(self):
        backend = _CountingBackend()
        client = LLMClient(backend, concurrency=3)
        threads = [
            threading.Thread(
                target=client.generate,
                args=(GenRequest(model="m", user_prompt=f"p{i}"),),
            )
            for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.max_in_flight <= 3


class _FlakyBackend:
    def __init__(self, failures: int, exc_factory=lambda: _Retryable("HTTP 429")):
        self.failures = failures
        self.exc_factory = exc_factory
        self.calls = 0

    def complete(self, req):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc_factory()
        return "Summary: ok", 1, 1

    def score(self, req):
        return -1.0, 1


class TestRetry:
    def test_exponential_backoff_schedule(self):
        delays: list[float] = []
        backend = _FlakyBackend(failures=2)
        client = LLMClient(
            backend,
            retry=RetryPolicy(attempts=5, base_delay=1.0),
            sleep=delays.append,
        )
        response = client.generate(GenRequest(model="m", user_prompt="p"))
        assert response.text == "Summary: ok"
        assert backend.calls == 3
        assert len(delays) == 2
        assert 0.8 <= delays[0] <= 1.2
        assert 1.6 <= delays[1] <= 2.4

    def test_retries_exhausted_raises_transport_error(self):
        backend = _FlakyBackend(failures=99)
        client = LLMClient(backend, retry=RetryPolicy(attempts=3, base_delay=0.0), sleep=lambda _: None)
        with pytest.raises(TransportError, match="3 attempts"):
            client.generate(GenRequest(model="m", user_prompt="p"))
        assert backend.calls == 3

    def test_non_retryable_error_not_retried(self):
        backend = _FlakyBackend(failures=99, exc_factory=lambda: EndpointError(401, "denied"))
        client = LLMClient(backend, sleep=lambda _: None)
        with pytest.raises(EndpointError):
            client.generate(GenRequest(model="m", user_prompt="p"))
        assert backend.calls == 1

    def test_oversize_error_not_retried(self):
        backend = _FlakyBackend(failures=99, exc_factory=lambda: OversizeError("too long"))
        client = LLMClient(backend, sleep=lambda _: None)
        with pytest.raises(OversizeError, match="too long"):
            client.generate(GenRequest(model="m", user_prompt="p"))
        assert backend.calls == 1


class _FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None, text: str = "", headers: dict | None = None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text or "body"
        self.headers = headers or {}

    def json(self, **kwargs):
        return json.loads(json.dumps(self._payload), **kwargs)


class _FakeSession:
    def __init__(self, responses: list[_FakeResponse]):
        self.responses = list(responses)
        self.posts: list[tuple[str, dict]] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append((url, json))
        return self.responses.pop(0)


class _EchoSession(_FakeSession):
    """Answers the first posts with the statuses of ``failures``, then each
    completions post as an endpoint that echoes every prompt as its context
    and the continuation ``draft`` as two tokens, scored by ``overlap_scorer``."""

    def __init__(self, draft: str, failures: list[int] = ()):
        super().__init__([_FakeResponse(status) for status in failures])
        self.draft = draft

    def post(self, url, json=None, headers=None, timeout=None):
        if self.responses:
            return super().post(url, json, headers, timeout)
        self.posts.append((url, json))
        choices = []
        for index, prompt in enumerate(json["prompt"]):
            context = prompt[: len(prompt) - len(self.draft)]
            choices.append(_choice(index, [context, self.draft], [None, overlap_scorer(context, self.draft)]))
        return _FakeResponse(200, {"choices": choices})


def _completions_payload(tokens, logprobs, offsets):
    return {
        "choices": [
            {
                "text": "".join(tokens),
                "logprobs": {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets},
            }
        ]
    }


_CHAT_OK = {
    "choices": [{"message": {"content": "Summary: fine"}}],
    "usage": {"prompt_tokens": 7, "completion_tokens": 3},
}


class TestRetryAfter:
    """The wait after a 429 or 503 is the larger of the backoff and the
    Retry-After delta-seconds, the header's part capped at MAX_RETRY_AFTER."""

    @staticmethod
    def _first_wait(status: int, retry_after: str | None, base_delay: float = 1.0) -> float:
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        session = _FakeSession([_FakeResponse(status, headers=headers), _FakeResponse(200, _CHAT_OK)])
        delays: list[float] = []
        client = LLMClient(
            HTTPBackend("http://host", session=session),
            retry=RetryPolicy(attempts=3, base_delay=base_delay),
            sleep=delays.append,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(llm_client, "BACKOFF_JITTER", 0.0)
            assert client.generate(GenRequest(model="m", user_prompt="p")).text == "Summary: fine"
        assert client.backend_calls == 2 and len(session.posts) == 2
        [delay] = delays
        return delay

    @pytest.mark.parametrize("status", [429, 503])
    def test_a_longer_retry_after_is_waited(self, status):
        assert self._first_wait(status, "7") == 7.0

    def test_a_shorter_retry_after_keeps_the_backoff(self):
        assert self._first_wait(429, "2", base_delay=10.0) == 10.0

    def test_the_header_is_capped(self):
        assert self._first_wait(503, "86400") == MAX_RETRY_AFTER

    @pytest.mark.parametrize("value", [None, "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-5", "nan", ""])
    def test_a_missing_header_or_one_that_is_not_a_number_keeps_the_backoff(self, value):
        assert self._first_wait(429, value) == 1.0

    def test_other_transient_statuses_ignore_the_header(self):
        assert self._first_wait(502, "7") == 1.0


class TestHTTPBackend:
    def test_generate_parses_chat_payload(self):
        session = _FakeSession(
            [
                _FakeResponse(
                    200,
                    {
                        "choices": [{"message": {"content": "Summary: fine"}}],
                        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
                    },
                )
            ]
        )
        backend = HTTPBackend("http://host/api", api_key="k", session=session)
        text, pt, ct = backend.complete(GenRequest(model="m", user_prompt="p", seed=5))
        assert (text, pt, ct) == ("Summary: fine", 7, 3)
        url, payload = session.posts[0]
        assert url == "http://host/api/v1/chat/completions"
        assert payload["temperature"] == 0.0
        assert payload["seed"] == 5

    def test_score_sums_continuation_tokens(self):
        # context "ab", continuation " cd ef": tokens align exactly at offset 2
        payload = _completions_payload(["ab", " cd", " ef"], [None, -1.5, -0.25], [0, 2, 5])
        session = _FakeSession([_FakeResponse(200, payload)])
        backend = HTTPBackend("http://host", session=session)
        assert backend.score("m", "ab", " cd ef") == pytest.approx(-1.75)
        _, payload = session.posts[0]
        assert payload["echo"] is True
        assert payload["max_tokens"] == 0
        assert payload["logprobs"] == 1

    def test_misaligned_seam_retries_with_space(self):
        # First call: token "abc d" spans the seam at offset 2 -> misaligned.
        first = _FakeResponse(200, _completions_payload(["abc d"], [None], [0]))
        # Second call (context "ab "): seam at 3, token " cd" starts at 3.
        second = _FakeResponse(200, _completions_payload(["ab ", "cd"], [None, -0.5], [0, 3]))
        session = _FakeSession([first, second])
        backend = HTTPBackend("http://host", session=session)
        assert backend.score("m", "ab", "cd") == pytest.approx(-0.5)
        assert len(session.posts) == 2
        assert session.posts[1][1]["prompt"] == ["ab cd"]

    def test_longer_continuation_never_scores_higher_on_trace(self):
        # recorded-style traces of one prompt and its extension: every echoed
        # token logprob is <= 0, so extending the continuation lowers the total
        short = _completions_payload(["ab", " cd"], [None, -1.5], [0, 2])
        longer = _completions_payload(["ab", " cd", " ef"], [None, -1.5, -0.8], [0, 2, 5])
        backend_short = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, short)]))
        backend_long = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, longer)]))
        total_short = backend_short.score("m", "ab", " cd")
        total_long = backend_long.score("m", "ab", " cd ef")
        assert total_long <= total_short
        assert total_short <= 0.0

    def test_missing_logprobs_is_capability_error(self):
        session = _FakeSession([_FakeResponse(200, {"choices": [{"text": "x"}]})])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(CapabilityError):
            backend.score("m", "a", "b")

    @pytest.mark.parametrize(
        "offsets",
        [[0, None, 5], [0, 2], [0, 2.9, 5], [0, "2", 5]],
        ids=["a_null_offset", "an_offset_short", "a_fractional_offset", "a_string_offset"],
    )
    def test_malformed_echoed_logprobs_are_an_endpoint_error_not_retried_or_cached(self, tmp_path, offsets):
        from higen.attribution import AttributionParams, contextcite_attribute
        from higen.errors import AttributionError

        # Three tokens; an offset list with the last one missing would sum the wrong tail, -0.75.
        # The attribution's one request of 8 contexts is answered by the first such choice.
        payload = _completions_payload(["ab", " cd", " ef"], [None, -0.5, -0.25], offsets)
        session = _FakeSession([_FakeResponse(200, payload)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        doc = make_document("d", "Alpha one. Beta two. Gamma three.")
        with pytest.raises(AttributionError, match="echoed logprobs") as err:
            contextcite_attribute(client, doc, " cd ef", "m", AttributionParams(m=8))
        assert isinstance(err.value.__cause__, EndpointError) and err.value.__cause__.status == 200
        assert len(session.posts) == client.backend_calls == 1
        assert len(session.posts[0][1]["prompt"]) == 8
        # No packed_score entry (the only cached scores) is written for the failed request.
        assert list((tmp_path / "cache").iterdir()) == []

    def test_oversize_rejection_detected(self):
        session = _FakeSession(
            [_FakeResponse(400, text="this model's maximum context length is 4096 tokens")]
        )
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(OversizeError):
            backend.complete(GenRequest(model="m", user_prompt="p"))

    @pytest.mark.parametrize(
        "payload",
        [
            {"choices": []},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": 42}}]},
            {**_CHAT_OK, "usage": "7 and 3"},
            {**_CHAT_OK, "usage": {"prompt_tokens": None, "completion_tokens": 3}},
            # Valid JSON, but text with no UTF-8 form to cache or record.
            {"choices": [{"message": {"content": "Summary: ok \ud83d"}}]},
        ],
        ids=["no_choice", "null_content", "number_content", "usage_not_a_mapping", "null_prompt_tokens", "lone_surrogate"],
    )
    def test_a_chat_payload_it_cannot_read_is_an_endpoint_error_not_retried_or_cached(self, tmp_path, payload):
        session = _FakeSession([_FakeResponse(200, payload), _FakeResponse(200, _CHAT_OK)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        with pytest.raises(EndpointError) as err:
            client.generate(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 200
        assert len(session.posts) == client.backend_calls == 1
        assert list((tmp_path / "cache").iterdir()) == []

    def test_client_error_is_endpoint_error(self):
        session = _FakeSession([_FakeResponse(404, text="nope")])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(EndpointError) as err:
            backend.complete(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 404

    def test_malformed_200_body_is_endpoint_error(self):
        class _NotJSON(_FakeResponse):
            def json(self):
                raise requests.JSONDecodeError("Expecting value", self.text, 0)

        session = _FakeSession([_NotJSON(200, text="<html>gateway</html>")])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(EndpointError, match="malformed JSON") as err:
            backend.complete(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 200


class _CannedAdapter(requests.adapters.BaseAdapter):
    """A transport adapter that answers every request with ``_CHAT_OK`` and
    records the proxies, CA setting and Authorization header it was sent."""

    def __init__(self):
        super().__init__()
        self.sent: list[tuple[dict, object, str | None]] = []

    def send(self, request, stream=False, timeout=None, verify=True, cert=None, proxies=None):
        self.sent.append((dict(proxies or {}), verify, request.headers.get("Authorization")))
        response = requests.Response()
        response.status_code = 200
        response._content = json.dumps(_CHAT_OK).encode("utf-8")
        response.request, response.url = request, request.url
        return response

    def close(self):
        pass


class TestEnvironmentSettings:
    """A backend that builds its own session reads the endpoint's proxy, CA
    bundle and netrc credentials once, and its posts carry what a plain
    requests session would have read from the environment on each one."""

    @pytest.fixture(autouse=True)
    def environment(self, monkeypatch, tmp_path):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "ALL_PROXY", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://proxy.example:3128")
        monkeypatch.setenv("HTTPS_PROXY", "http://proxy.example:3128")
        monkeypatch.setenv("NO_PROXY", "direct.example")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
        netrc = tmp_path / "netrc"
        netrc.write_text("machine direct.example login user password secret\n", encoding="utf-8")
        monkeypatch.setenv("NETRC", str(netrc))

    @staticmethod
    def _sent(session: requests.Session, base_url: str) -> list:
        adapter = _CannedAdapter()
        session.mount("http://", adapter)
        backend = HTTPBackend(base_url, session=session)
        for _ in range(2):
            assert backend.complete(GenRequest(model="m", user_prompt="p"))[0] == "Summary: fine"
        return adapter.sent

    @pytest.mark.parametrize("base_url", ["http://proxied.example", "http://direct.example/api"])
    def test_posts_carry_the_settings_a_plain_session_reads(self, base_url, monkeypatch):
        expected = self._sent(requests.Session(), base_url)
        backend = HTTPBackend(base_url)
        adapter = _CannedAdapter()
        backend.session.mount("http://", adapter)
        lookups: list[str] = []

        def counted(name):
            real = getattr(requests.sessions, name)

            def lookup(*args, **kwargs):
                lookups.append(name)
                return real(*args, **kwargs)

            return lookup

        for name in ("get_environ_proxies", "get_netrc_auth"):
            monkeypatch.setattr(requests.sessions, name, counted(name))
        for _ in range(2):
            assert backend.complete(GenRequest(model="m", user_prompt="p"))[0] == "Summary: fine"
        assert adapter.sent == expected
        assert lookups == []

    def test_the_settings_are_the_environments(self, tmp_path):
        proxied = self._sent(requests.Session(), "http://proxied.example")[0]
        direct = self._sent(requests.Session(), "http://direct.example")[0]
        assert proxied[0]["http"] == "http://proxy.example:3128" and proxied[2] is None
        assert direct[1] == str(tmp_path / "ca.pem") and direct[2].startswith("Basic ")

    def test_an_injected_session_is_left_alone(self):
        session = requests.Session()
        HTTPBackend("http://proxied.example", session=session)
        assert session.trust_env is True and session.proxies == {} and session.auth is None


class TestBackendFromUrl:
    @pytest.mark.parametrize(
        "url", ["mock://", "mock://echo_first_k", "mock://?scorer=overlap", "mock://echo_first_k?scorer=overlap"]
    )
    def test_mock_scheme(self, url):
        backend = backend_from_url(url)
        assert type(backend) is MockBackend
        assert (backend.generate_fn, backend.score_fn) == (echo_first_k, overlap_scorer)

    @pytest.mark.parametrize(
        "url", ["mock://no_summary", "mock://echo_first_k?scorer=per_token", "mock://echo_first_k?scorer=overlapp"]
    )
    def test_any_other_mock_url_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match=r"unknown mock endpoint .*'mock://echo_first_k\?scorer=overlap'"):
            backend_from_url(url)

    def test_http_scheme(self):
        backend = backend_from_url("http://localhost:8000")
        assert isinstance(backend, HTTPBackend)
        assert backend.base_url == "http://localhost:8000"

    def test_http_pool_holds_one_connection_per_worker(self):
        backend = backend_from_url("http://localhost:8000", concurrency=32)
        for url in ("http://localhost:8000", "https://example.org"):
            adapter = backend.session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == 32


def _choice(index, tokens, logprobs):
    offsets = [sum(len(t) for t in tokens[:i]) for i in range(len(tokens))]
    return {
        "index": index,
        "text": "".join(tokens),
        "logprobs": {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets},
    }


class TestBatchedScoring:
    def test_batch_is_one_request_with_an_array_prompt(self):
        payload = {"choices": [_choice(0, ["ab", " cd"], [None, -1.0]), _choice(1, ["xy", " cd"], [None, -2.0])]}
        session = _FakeSession([_FakeResponse(200, payload)])
        backend = HTTPBackend("http://host", session=session)
        assert backend.score_many("m", " cd", ["ab", "xy"]) == [-1.0, -2.0]
        [(url, sent)] = session.posts
        assert url == "http://host/v1/completions"
        assert sent["prompt"] == ["ab cd", "xy cd"]
        assert sent["echo"] is True and sent["max_tokens"] == 0

    def test_choices_are_mapped_by_index_not_position(self):
        payload = {
            "choices": [
                _choice(2, ["c", " z"], [None, -3.0]),
                _choice(0, ["a", " z"], [None, -1.0]),
                _choice(1, ["b", " ", "z"], [None, -2.0, -0.5]),
            ]
        }
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        assert backend.score_many("m", " z", ["a", "b", "c"]) == [-1.0, -2.5, -3.0]

    @pytest.mark.parametrize("indices", [[0], [0, 1, 2], [0, 0]])
    def test_wrong_choices_are_endpoint_errors(self, indices):
        payload = {"choices": [_choice(i, ["a", " z"], [None, -1.0]) for i in indices]}
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        with pytest.raises(EndpointError) as err:
            backend.score_many("m", " z", ["a", "b"])
        assert err.value.status == 200

    def test_only_the_misaligned_item_takes_the_seam_space_retry(self):
        # "ab" + "cd" aligns at offset 2; "xy" + "cd" echoes one token "xycd",
        # so only the second item is sent again, as "xy " + "cd".
        first = {"choices": [_choice(0, ["ab", "cd"], [None, -1.0]), _choice(1, ["xycd"], [None])]}
        second = {"choices": [_choice(0, ["xy ", "cd"], [None, -0.5])]}
        session = _FakeSession([_FakeResponse(200, first), _FakeResponse(200, second)])
        backend = HTTPBackend("http://host", session=session)
        scored = backend.score_many("m", "cd", ["ab", "xy"])
        assert scored == [-1.0, -0.5]
        assert [sent["prompt"] for _, sent in session.posts] == [["abcd", "xycd"], ["xy cd"]]

    def test_a_packed_request_is_matched_by_index_and_resends_only_its_misaligned_item(self):
        # Twelve contexts in one request; the choices come back shuffled, and
        # the one of context 7 echoes one token across its seam.
        contexts = [f"ctx{i}" for i in range(12)]
        choices = [_choice(i, [f"ctx{i}", " z"], [None, -float(i + 1)]) for i in range(12)]
        choices[7] = _choice(7, ["ctx7 z"], [None])
        order = [5, 11, 0, 7, 3, 9, 1, 10, 6, 2, 8, 4]
        first = {"choices": [choices[i] for i in order]}
        second = {"choices": [_choice(0, ["ctx7 ", "z"], [None, -0.5])]}
        session = _FakeSession([_FakeResponse(200, first), _FakeResponse(200, second)])
        scored = HTTPBackend("http://host", session=session).score_many("m", " z", contexts)
        assert scored == [-float(i + 1) if i != 7 else -0.5 for i in range(12)]
        assert [sent["prompt"] for _, sent in session.posts] == [[f"ctx{i} z" for i in range(12)], ["ctx7  z"]]

    def test_backend_calls_count_requests_not_items(self, tmp_path):
        payload = {"choices": [_choice(i, [str(i), " z"], [None, -1.0]) for i in range(8)]}
        session = _FakeSession([_FakeResponse(200, payload)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        scored = client.score_batch("m", " z", [str(i) for i in range(8)])
        assert scored == [-1.0] * 8
        assert len(session.posts) == 1
        assert client.backend_calls == 1

    def test_transient_failure_retries_the_whole_batch_once_counted_per_request(self, tmp_path):
        payload = {"choices": [_choice(i, [str(i), " z"], [None, -1.0]) for i in range(2)]}
        session = _FakeSession([_FakeResponse(429), _FakeResponse(200, payload)])
        client = LLMClient(HTTPBackend("http://host", session=session), sleep=lambda _: None)
        assert client.score_batch("m", " z", ["0", "1"]) == [-1.0, -1.0]
        assert len(session.posts) == 2
        assert session.posts[0][1] == session.posts[1][1]
        assert client.backend_calls == 2

    def test_a_request_is_built_once_however_many_attempts_it_takes(self, tmp_path, monkeypatch):
        from higen import attribution
        from higen.attribution import AttributionParams, contextcite_attribute

        # One attribution's request of 8 contexts meets two 429s before it is answered.
        doc = make_document("d", "Alpha one. Beta two. Gamma three.")
        session = _EchoSession(" Alpha.", failures=[429, 429])
        client = LLMClient(
            HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache", sleep=lambda _: None
        )
        built = []
        plain_ablate = attribution.ablate

        def ablate(document, mask):
            built.append(len(session.posts))
            return plain_ablate(document, mask)

        monkeypatch.setattr(attribution, "ablate", ablate)
        params = AttributionParams(m=8)
        result = contextcite_attribute(client, doc, " Alpha.", "m", params)
        assert built == [0] * 8  # before the first attempt, and only then
        assert len(session.posts) == client.backend_calls == 3
        # A hit neither builds nor sends.
        assert contextcite_attribute(client, doc, " Alpha.", "m", params) == result
        assert built == [0] * 8 and len(session.posts) == client.backend_calls == 3
        assert client.cache_hits == 8

    def test_the_seam_retry_post_counts_as_a_backend_call(self, tmp_path):
        first = {"choices": [_choice(0, ["ab", "cd"], [None, -1.0]), _choice(1, ["xycd"], [None])]}
        second = {"choices": [_choice(0, ["xy ", "cd"], [None, -0.5])]}
        session = _FakeSession([_FakeResponse(200, first), _FakeResponse(200, second)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        assert client.score_batch("m", "cd", ["ab", "xy"]) == [-1.0, -0.5]
        assert len(session.posts) == client.backend_calls == 2

    def test_the_manifest_counts_every_post_of_a_run(self, tmp_path, monkeypatch):
        config = runner.parse_config(
            {
                "dataset": {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 1},
                "methods": ["two_stage_cc"],
                "model": "mock-model",
                "run_dir": str(tmp_path / "run"),
                "cache_dir": str(tmp_path / "cache"),
                "endpoint": {"base_url": "mock://"},
                "k": 2,
                "attribution": {"m": 16},
            }
        )
        drafts = []
        attribute = pipeline.contextcite_attribute

        def capture_draft(client, document, response, *args, **kwargs):
            drafts.append(response)
            return attribute(client, document, response, *args, **kwargs)

        monkeypatch.setattr(pipeline, "contextcite_attribute", capture_draft)
        runner.run(config)
        [draft] = drafts
        # Keep the generations; the rerun then only scores.
        for path in (tmp_path / "cache").glob("*.json"):
            if json.loads(path.read_text(encoding="utf-8"))["request"]["kind"] != "gen":
                path.unlink()

        class _Completions(_FakeSession):
            """Scores each prompt as the mock does; the seam of the first
            context of the first post falls inside its one echoed token."""

            def post(self, url, json=None, headers=None, timeout=None):
                self.posts.append((url, json))
                choices = []
                for index, prompt in enumerate(json["prompt"]):
                    seam = len(prompt) - len(draft)
                    tokens, logprobs = [prompt[:seam], draft], [None, overlap_scorer(prompt[:seam], draft)]
                    if len(self.posts) == 1 and index == 0:
                        tokens, logprobs = [prompt], [None]
                    choices.append(_choice(index, tokens, logprobs))
                return _FakeResponse(200, {"choices": choices})

        session = _Completions([])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        rerun = runner.parse_config({**asdict(config), "run_dir": str(tmp_path / "rerun")})
        runner.run(rerun, client=client)
        assert [url for url, _ in session.posts] == ["http://host/v1/completions"] * 2
        assert len(session.posts[1][1]["prompt"]) == 1
        assert client.backend_calls == 2
        assert json.loads((tmp_path / "rerun" / "manifest.json").read_text())["llm_calls"] == 2
        [first], [second] = runner.read_records(tmp_path / "run"), runner.read_records(tmp_path / "rerun")
        assert second.ok and {**second.to_dict(), "wall_ms": 0} == {**first.to_dict(), "wall_ms": 0}

class TestGenerateCoalescing:
    def test_concurrent_identical_requests_make_one_backend_call(self, tmp_path):
        entered, release = threading.Event(), threading.Event()

        class _SlowBackend:
            calls = 0

            def complete(self, req):
                _SlowBackend.calls += 1
                entered.set()
                release.wait(5)
                return "Summary: ok", 1, 1

        client = LLMClient(_SlowBackend(), cache_dir=tmp_path / "cache")
        req = GenRequest(model="m", user_prompt="p")
        responses = []
        threads = [threading.Thread(target=lambda: responses.append(client.generate(req))) for _ in range(2)]
        threads[0].start()
        assert entered.wait(5)
        threads[1].start()
        time.sleep(0.05)  # without the per-key lock the second call reaches the backend here
        release.set()
        for t in threads:
            t.join(5)
            assert not t.is_alive()
        assert _SlowBackend.calls == 1
        assert sorted(r.cached for r in responses) == [False, True]
        assert client.cache_hits == 1

    def test_many_threads_over_few_prompts_make_one_call_per_prompt(self, tmp_path):
        import sys

        client, backend = make_mock_client(tmp_path, concurrency=8)
        prompts = [GenRequest(model="m", user_prompt=f"Write a summary.\n\nReport:\nDoc {i}.") for i in range(4)]
        texts: list[str] = []

        def worker(offset: int) -> None:
            for i in range(len(prompts)):
                texts.append(client.generate(prompts[(i + offset) % len(prompts)]).text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(texts) == 64
        assert backend.gen_calls == client.backend_calls == 4
        assert client.cache_hits == 60

    def test_a_key_lock_is_freed_once_its_last_caller_leaves(self, tmp_path):
        import sys

        client, backend = make_mock_client(tmp_path, concurrency=4)
        prompts = [GenRequest(model="m", user_prompt=f"Write a summary.\n\nReport:\nDoc {i}.") for i in range(50)]

        def worker(offset: int) -> None:
            for i in range(len(prompts)):
                client.generate(prompts[(i + offset) % len(prompts)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert backend.gen_calls == client.backend_calls == 50
        assert client.cache_hits == 8 * 50 - 50
        assert client._key_locks == {}
        # A generation that fails frees its key's lock too.
        failing = LLMClient(_FlakyBackend(failures=99, exc_factory=lambda: EndpointError(401, "denied")))
        with pytest.raises(EndpointError):
            failing.generate(GenRequest(model="m", user_prompt="p"))
        assert failing._key_locks == {}
