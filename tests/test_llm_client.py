from __future__ import annotations

import hashlib
import json
import threading
import time
from itertools import compress

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.corpus import json_escaped, make_document
from higen.errors import CapabilityError, EndpointError, OversizeError, TransportError
from higen.llm_client import (
    GenRequest,
    HTTPBackend,
    LLMClient,
    MockBackend,
    RetryPolicy,
    ScoreRequest,
    _canonical_gen_key,
    _canonical_score_key,
    _Retryable,
    backend_from_url,
    echo_first_k,
    per_token_scorer,
    prompt_hash,
    score_key,
)

from conftest import make_mock_client


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

    def test_per_token_scorer_contract(self, tmp_path):
        client, _ = make_mock_client(tmp_path)
        response = client.score_continuation(ScoreRequest(model="m", context="x", continuation="a b c"))
        assert response.total_logprob == pytest.approx(-1.5)
        assert response.token_count == 3

    def test_per_token_scorer_empty_context(self, tmp_path):
        client, _ = make_mock_client(tmp_path)
        response = client.score_continuation(ScoreRequest(model="m", context="", continuation="a"))
        assert response.total_logprob == pytest.approx(-0.5)

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
            GenRequest(model="m", user_prompt="p", temperature=-1)
        with pytest.raises(ValueError):
            GenRequest(model="m", user_prompt="p", max_tokens=0)
        with pytest.raises(ValueError):
            ScoreRequest(model="m", context="c", continuation="")


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
        base = GenRequest(model="m", user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=10, seed=1)
        variants = [
            GenRequest(model="m2", user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p2", system_prompt="s", temperature=0.0, max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p", system_prompt=None, temperature=0.0, max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p", system_prompt="s", temperature=0.5, max_tokens=10, seed=1),
            GenRequest(model="m", user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=11, seed=1),
            GenRequest(model="m", user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=10, seed=2),
            GenRequest(model="m", user_prompt="p", system_prompt="s", temperature=0.0, max_tokens=10, seed=None),
        ]
        keys = {_canonical_gen_key(r) for r in [base, *variants]}
        assert len(keys) == len(variants) + 1

    def test_score_requests_cached(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        req = ScoreRequest(model="m", context="c", continuation="a b")
        client.score_continuation(req)
        client.score_continuation(req)
        assert backend.score_calls == 1
        assert client.cache_hits == 1

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


def _plain_score_key(model: str, context: str, continuation: str) -> str:
    """The score-cache key as it was first defined, the oracle for score_key."""
    payload = {"kind": "score", "model": model, "context": context, "continuation": continuation}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


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
    def test_pre_escaped_join_equals_the_plain_formula(self, sentences, bits, model, continuation):
        mask = bits[: len(sentences)]
        context = " ".join(compress(sentences, mask))
        escaped = b" ".join(compress([json_escaped(text) for text in sentences], mask))
        expected = _plain_score_key(model, context, continuation)
        assert score_key(model, continuation, escaped) == expected
        assert _canonical_score_key(ScoreRequest(model, context, continuation)) == expected

    def test_a_given_key_is_used_and_not_compared(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        plain = ScoreRequest(model="m", context="c", continuation="a b")
        keyed = ScoreRequest(model="m", context="c", continuation="a b", key="0" * 64)
        assert keyed == plain
        client.score_many([plain, keyed])
        assert sorted(path.stem for path in (tmp_path / "cache").glob("*.json")) == sorted(
            ["0" * 64, _canonical_score_key(plain)]
        )

    def test_mock_backend_records_a_scored_context_by_its_hash(self, tmp_path):
        client, backend = make_mock_client(tmp_path)
        context = "A long ablated context. " * 50
        client.score_many([ScoreRequest(model="m", context=context, continuation="a b")])
        [recorded] = backend.requests
        assert recorded == ScoreRequest(model="m", context=prompt_hash(context), continuation="a b")


_DAMAGED_BODIES = {
    "not_an_object": b"[1, 2]",
    "not_utf8": b"\xff\xfe{\xfa",
    "missing_field": b'{"request": {}, "response": {"total_logprob": 1}}',
    "wrong_type": (
        b'{"request": {}, "response": {"total_logprob": "-1", "token_count": 1,'
        b' "text": 7, "prompt_tokens": 1, "completion_tokens": 1}}'
    ),
    "truncated": b'{"request": {"kind": "score"}, "response": {"total_lo',
}


class TestDamagedCacheEntry:
    @pytest.mark.parametrize("body", list(_DAMAGED_BODIES.values()), ids=list(_DAMAGED_BODIES))
    @pytest.mark.parametrize("kind", ["score", "gen"])
    def test_is_a_miss_that_is_written_again(self, tmp_path, kind, body):
        if kind == "score":
            req = ScoreRequest(model="m", context="c", continuation="a b")
            call = lambda client: client.score_many([req])[0]  # noqa: E731
        else:
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
            retry=RetryPolicy(attempts=5, base_delay=1.0, factor=2.0, jitter=0.2),
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

    def test_oversize_error_names_document(self):
        backend = _FlakyBackend(failures=99, exc_factory=lambda: OversizeError("too long"))
        client = LLMClient(backend, sleep=lambda _: None)
        with pytest.raises(OversizeError, match="doc42"):
            client.generate(GenRequest(model="m", user_prompt="p"), doc_id="doc42")


class _FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None, text: str = ""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text or "body"

    def json(self, **kwargs):
        return json.loads(json.dumps(self._payload), **kwargs)


class _FakeSession:
    def __init__(self, responses: list[_FakeResponse]):
        self.responses = list(responses)
        self.posts: list[tuple[str, dict]] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append((url, json))
        return self.responses.pop(0)


def _completions_payload(tokens, logprobs, offsets):
    return {
        "choices": [
            {
                "text": "".join(tokens),
                "logprobs": {"tokens": tokens, "token_logprobs": logprobs, "text_offset": offsets},
            }
        ]
    }


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
        total, count = backend.score(ScoreRequest(model="m", context="ab", continuation=" cd ef"))
        assert total == pytest.approx(-1.75)
        assert count == 2
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
        total, count = backend.score(ScoreRequest(model="m", context="ab", continuation="cd"))
        assert total == pytest.approx(-0.5)
        assert count == 1
        assert len(session.posts) == 2
        assert session.posts[1][1]["prompt"] == "ab cd"

    def test_longer_continuation_never_scores_higher_on_trace(self):
        # recorded-style traces of one prompt and its extension: every echoed
        # token logprob is <= 0, so extending the continuation lowers the total
        short = _completions_payload(["ab", " cd"], [None, -1.5], [0, 2])
        longer = _completions_payload(["ab", " cd", " ef"], [None, -1.5, -0.8], [0, 2, 5])
        backend_short = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, short)]))
        backend_long = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, longer)]))
        total_short, _ = backend_short.score(ScoreRequest(model="m", context="ab", continuation=" cd"))
        total_long, _ = backend_long.score(ScoreRequest(model="m", context="ab", continuation=" cd ef"))
        assert total_long <= total_short
        assert total_short <= 0.0

    def test_missing_logprobs_is_capability_error(self):
        session = _FakeSession([_FakeResponse(200, {"choices": [{"text": "x"}]})])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(CapabilityError):
            backend.score(ScoreRequest(model="m", context="a", continuation="b"))

    def test_oversize_rejection_detected(self):
        session = _FakeSession(
            [_FakeResponse(400, text="this model's maximum context length is 4096 tokens")]
        )
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(OversizeError):
            backend.complete(GenRequest(model="m", user_prompt="p"))

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


class TestBackendFromUrl:
    def test_mock_scheme(self):
        backend = backend_from_url("mock://echo_first_k?scorer=per_token")
        assert isinstance(backend, MockBackend)
        assert backend.score_fn is per_token_scorer

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


class _BatchRecorder:
    """Scoring backend that records each batch it is sent."""

    def __init__(self):
        self.batches: list[list[ScoreRequest]] = []

    def score_many(self, reqs):
        self.batches.append(list(reqs))
        return [(-float(len(req.context)) - 1.0, 1) for req in reqs]


class TestBatchedScoring:
    def test_batch_is_one_request_with_an_array_prompt(self):
        payload = {"choices": [_choice(0, ["ab", " cd"], [None, -1.0]), _choice(1, ["xy", " cd"], [None, -2.0])]}
        session = _FakeSession([_FakeResponse(200, payload)])
        backend = HTTPBackend("http://host", session=session)
        reqs = [ScoreRequest("m", "ab", " cd"), ScoreRequest("m", "xy", " cd")]
        assert backend.score_many(reqs) == [(-1.0, 1), (-2.0, 1)]
        [(url, sent)] = session.posts
        assert url == "http://host/v1/completions"
        assert sent["prompt"] == ["ab cd", "xy cd"]
        assert sent["echo"] is True and sent["max_tokens"] == 0

    def test_choices_are_mapped_by_index_not_position(self):
        payload = {
            "choices": [
                _choice(2, ["c", " z"], [None, -3.0]),
                _choice(0, ["a", " z"], [None, -1.0]),
                _choice(1, ["b", " z", " z"], [None, -2.0, -0.5]),
            ]
        }
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        reqs = [ScoreRequest("m", "a", " z"), ScoreRequest("m", "b", " z z"), ScoreRequest("m", "c", " z")]
        assert backend.score_many(reqs) == [(-1.0, 1), (-2.5, 2), (-3.0, 1)]

    @pytest.mark.parametrize("indices", [[0], [0, 1, 2], [0, 0]])
    def test_wrong_choices_are_endpoint_errors(self, indices):
        payload = {"choices": [_choice(i, ["a", " z"], [None, -1.0]) for i in indices]}
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        with pytest.raises(EndpointError) as err:
            backend.score_many([ScoreRequest("m", "a", " z"), ScoreRequest("m", "b", " z")])
        assert err.value.status == 200

    def test_only_the_misaligned_item_takes_the_seam_space_retry(self):
        # "ab" + " cd" aligns at offset 2; "ab" + "cd" echoes one token "abcd",
        # so only the second item is sent again, as "ab " + "cd".
        first = {"choices": [_choice(0, ["ab", " cd"], [None, -1.0]), _choice(1, ["abcd"], [None])]}
        second = {"choices": [_choice(0, ["ab ", "cd"], [None, -0.5])]}
        session = _FakeSession([_FakeResponse(200, first), _FakeResponse(200, second)])
        backend = HTTPBackend("http://host", session=session)
        scored = backend.score_many([ScoreRequest("m", "ab", " cd"), ScoreRequest("m", "ab", "cd")])
        assert scored == [(-1.0, 1), (-0.5, 1)]
        assert [sent["prompt"] for _, sent in session.posts] == [["ab cd", "abcd"], "ab cd"]

    def test_partial_cache_hit_sends_only_the_misses(self, tmp_path):
        backend = _BatchRecorder()
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        reqs = [ScoreRequest("m", context, " z") for context in ("a", "bb", "ccc", "a")]
        client.score_continuation(reqs[1])
        scored = client.score_many(reqs)
        assert [r.total_logprob for r in scored] == [-2.0, -3.0, -4.0, -2.0]
        assert backend.batches == [[reqs[1]], [reqs[0], reqs[2]]]  # a repeated miss is sent once
        assert client.cache_hits == 1
        assert client.score_many(reqs) == scored
        assert len(backend.batches) == 2

    def test_backend_calls_count_requests_not_items(self, tmp_path):
        payload = {"choices": [_choice(i, [str(i), " z"], [None, -1.0]) for i in range(8)]}
        session = _FakeSession([_FakeResponse(200, payload)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        scored = client.score_many([ScoreRequest("m", str(i), " z") for i in range(8)])
        assert [s.total_logprob for s in scored] == [-1.0] * 8
        assert len(session.posts) == 1
        assert client.backend_calls == 1

    def test_transient_failure_retries_the_whole_batch_once_counted_per_request(self, tmp_path):
        payload = {"choices": [_choice(i, [str(i), " z"], [None, -1.0]) for i in range(2)]}
        session = _FakeSession([_FakeResponse(429), _FakeResponse(200, payload)])
        client = LLMClient(HTTPBackend("http://host", session=session), sleep=lambda _: None)
        client.score_many([ScoreRequest("m", "0", " z"), ScoreRequest("m", "1", " z")])
        assert len(session.posts) == 2
        assert session.posts[0][1] == session.posts[1][1]
        assert client.backend_calls == 2


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
