from __future__ import annotations

import datetime
import email.utils
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen import llm_client, pipeline, runner
from higen.corpus import TOKEN_RE, load_dataset, make_document, normalize_text, segment_sentences
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
    _hash_json_strings,
    _Retryable,
    backend_from_url,
    echo_first_k,
    overlap_scorer,
    packed_score_key,
    prompt_hash,
)
from higen.prompts import Highlight, fill, format_highlights, load_template, numbered_items

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


def _scanning_echo_first_k(req: GenRequest) -> str:
    """Oracle: ``echo_first_k`` as it scanned each prompt before it lowered an
    ASCII prompt once: the fence regex on every prompt, the IGNORECASE search
    for "key sentences", and the key points at the offset found in
    ``prompt.lower()``."""
    prompt = req.user_prompt
    judged = llm_client._mock_judge(prompt)
    if judged is not None:
        return judged
    fences = list(re.finditer(r"^={4,}\s*$", prompt, re.MULTILINE))
    if len(fences) >= 2:
        body = prompt[fences[0].end() : fences[1].start()].strip()
    elif prompt.rfind("Report:") >= 0:
        body = prompt[prompt.rfind("Report:") + len("Report:") :]
        cut = body.find("You should only focus")
        body = (body[:cut] if cut >= 0 else body).strip()
    else:
        body = prompt.strip()
    k_match = re.search(r"list of (\d+) key sentences", prompt, re.IGNORECASE)
    if k_match:
        chosen = llm_client._first_sentences(body, int(k_match.group(1)))
        numbered = "\n".join(f"{i + 1}. {text}" for i, text in enumerate(chosen))
        return f"Key Sentences:\n{numbered}\nSummary: {' '.join(chosen)}"
    idx = prompt.lower().rfind("key points:")
    points = numbered_items(prompt[idx + len("key points:") :]) if idx >= 0 else []
    if points:
        return "Summary: " + " ".join(points)
    return "Summary: " + " ".join(llm_client._first_sentences(body, 2) or ["ok."])


def _template_prompts() -> list[str]:
    """Every template filled from each fixture dataset's first document: the
    four pipeline prompts of its family and both judge prompts."""
    prompts = []
    for name, schema, family in (
        ("minicorpus.jsonl", "scrolls_govreport", "gov"),
        ("qmsum_record.jsonl", "scrolls_qmsum", "qmsum"),
    ):
        doc = load_dataset(DATA_DIR / name, schema)[0]
        highlights = [Highlight(s.text, i) for i, s in enumerate(doc.sentences[:2])]
        values = {
            "document": doc.normalized_text,
            "k": "3",
            "query": doc.query or "",
            "highlights": format_highlights(highlights),
            "summary": doc.reference_summary,
            "statement": doc.sentences[0].text,
        }
        for template in ("direct", "e2e", "stage1_highlights", "stage2_summary"):
            prompts.append(fill(load_template(f"{template}_{family}"), values))
        prompts += [fill(load_template(f"judge_{step}"), values) for step in ("extract_facts", "verify_fact")]
    return prompts


_BODY = "Alpha one is first. Beta two is second. Gamma three is third. Delta four is fourth."


class TestMockScansEachPromptOnce:
    @pytest.mark.parametrize("index", range(12))
    def test_every_template_prompt_equals_the_scanning_oracle(self, index):
        prompt = _template_prompts()[index]
        req = GenRequest(model="m", user_prompt=prompt)
        assert echo_first_k(req) == _scanning_echo_first_k(req)
        assert MockBackend().complete(req)[1] == len(prompt.split())

    @pytest.mark.parametrize(
        "prompt",
        [
            _gov_prompt("Alpha one.\n====\nBeta two. Gamma three.\n=====  \nDelta four.", k=2),
            _gov_prompt("Alpha one. ==== Beta two.\n====x\nGamma three."),
            "Extract a list of 2 key sentences.\n====\n" + _BODY + "\n====\nQuery: q",
            "Key points:\n1. Alpha.\n====\nBody. Text.\n====\n",
        ],
        ids=["fenced-lines", "no-fence-line", "two-fences", "fences-after-the-key-points"],
    )
    def test_a_body_holding_four_equals_signs_equals_the_scanning_oracle(self, prompt):
        req = GenRequest(model="m", user_prompt=prompt)
        assert echo_first_k(req) == _scanning_echo_first_k(req)

    @pytest.mark.parametrize("char", ["\u212a", "\u017f", "\u0131", "\u0130"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda c: f"{c}\n" + _gov_prompt(_BODY, k=2),
            lambda c: _gov_prompt(_BODY, k=2).replace("key sentences", f"key {c} sentences"),
            lambda c: _gov_prompt(_BODY, k=2).replace("Extract", f"Extract {c}"),
            lambda c: _gov_prompt(_BODY, k=2).replace("key", "\u212aey").replace("sentences", "\u017fentences"),
            lambda c: _gov_prompt(_BODY, k=2).replace("list", "l\u0130st") + c,
            lambda c: _gov_prompt(_BODY, k=2).replace("list", "l\u0131st") + c,
        ],
        ids=["before-the-prompt", "inside-the-phrase", "just-before-the-phrase", "kelvin-and-long-s-in-it",
             "dotted-capital-i-in-it", "dotless-i-in-it"],
    )
    def test_non_ascii_letters_before_key_sentences_equal_the_scanning_oracle(self, char, make):
        req = GenRequest(model="m", user_prompt=make(char))
        assert echo_first_k(req) == _scanning_echo_first_k(req)

    @pytest.mark.parametrize("capital_i", ["I", "\u0130"])
    def test_key_points_after_a_dotted_capital_i(self, capital_i):
        # U+0130 lowercases to two characters: an offset found in the
        # lowercase would cut into the prompt's first point.
        prompt = f"Report: {capital_i * 5} text.\nKey points:\n1. Alpha beta.\n2. Gamma delta.\n"
        assert echo_first_k(GenRequest(model="m", user_prompt=prompt)) == "Summary: Alpha beta. Gamma delta."

    @pytest.mark.parametrize("marker", ["KEY POINTS:", "\u212aey points:", "key points:"])
    def test_key_points_found_in_any_case_in_a_non_ascii_prompt(self, marker):
        prompt = f"Report: \u0130stanbul text.\nkey points:\n1. Early.\n{marker}\n1. Alpha beta.\n2. Gamma delta.\n"
        assert echo_first_k(GenRequest(model="m", user_prompt=prompt)) == "Summary: Alpha beta. Gamma delta."

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["w", "Word", "\xe9", "\u212a", "\u0130", " ", "   ", "\t", "\n", "\r\n", "\x0b", "\x0c"]
                + ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "\x00", "\x7f", "."]
            ),
            max_size=30,
        ).map("".join)
    )
    def test_the_prompt_word_count_is_the_split_count(self, text):
        assert llm_client._word_count(text) == len(text.split())
        assert llm_client._word_count(f" \t{text}\x1f ") == len(text.split())


def _set_missing(context: str, continuation: str) -> tuple[int, int]:
    """Oracle: (missing, words) of the continuation's regex tokens against the
    context's token set, the formula before the mock searched the context's
    bytes."""
    words, known = TOKEN_RE.findall(continuation.lower()), set(TOKEN_RE.findall(context.lower()))
    return sum(word not in known for word in words), len(words)


def _set_overlap_score(context: str, continuation: str) -> float:
    missing, words = _set_missing(context, continuation)
    return -1.0 - missing / words if words else -1.0


def _judge_verdict(document: str, statement: str) -> tuple[str, str]:
    """(the mock judge's answer, the set formula's) to one verify prompt."""
    prompt = fill(load_template("judge_verify_fact"), {"document": document, "statement": statement})
    answer = echo_first_k(GenRequest(model="judge", user_prompt=prompt))
    missing, words = _set_missing(prompt.rpartition("\n\nStatement:\n")[0], statement)
    supported = words and words - missing >= llm_client._MOCK_SUPPORT_SHARE * words
    return answer, "Answer: yes" if supported else "Answer: no"


_MANY_WORDS = " ".join(f"w{i}" for i in range(100))

# (context, continuation, the overlap score).
_WORD_CASES = [
    pytest.param("We concatenate the files.", "cat files", -1.5, id="only-inside-a-longer-token"),
    pytest.param("Alpha, beta; GAMMA", "alpha gamma", -1.0, id="at-the-first-and-last-character"),
    pytest.param("alpha beta", "alp beta ta", -1.0 - 2 / 3, id="a-prefix-and-a-suffix"),
    pytest.param("snake_case x-ray 42abc", "snake case x ray 42abc 42 abc", -1.0 - 2 / 7, id="next-to-_-and-digits"),
    pytest.param("Le caf\xe9 ouvre", "caf cafe ouvre", -1.0 - 1 / 3, id="next-to-a-non-ascii-letter"),
    pytest.param("one two", "one one three three three", -1.6, id="repeated-words"),
    pytest.param("anything at all", "", -1.0, id="an-empty-continuation"),
    pytest.param("anything at all", "... --", -1.0, id="a-continuation-without-tokens"),
    pytest.param("the \u212aelvin scale", "k kelvin", -1.5, id="kelvin-sign-lowercases-to-ascii"),
    pytest.param("\u0130stanbul and Z\xfcrich", "i stanbul z rich zurich", -1.2, id="a-non-ascii-context"),
    pytest.param("ab\ud800cd", "ab cd abcd", -1.0 - 1 / 3, id="a-lone-surrogate"),
    pytest.param(" ".join(f"w{i}" for i in range(0, 100, 2)), _MANY_WORDS, -1.5, id="many-distinct-words"),
]

_WORD_TEXTS = st.lists(
    st.sampled_from(["cat", "concatenate", "Cat", "a1", "1", "x_y", "x-y", "caf\xe9", "\u212a", "\u0130", "\ud800", "_", " ", ".", "\n"]),
    max_size=20,
).map("".join)


class TestMockWordTestsMatchTheSetFormula:
    @pytest.mark.parametrize("context, continuation, score", _WORD_CASES)
    def test_overlap_scorer(self, context, continuation, score):
        assert overlap_scorer(context, continuation) == _set_overlap_score(context, continuation)
        assert overlap_scorer(context, continuation) == pytest.approx(score)

    @pytest.mark.parametrize("context, continuation, score", _WORD_CASES)
    def test_judge_verdict(self, context, continuation, score):
        answer, oracle = _judge_verdict(context, continuation)
        assert answer == oracle

    @pytest.mark.parametrize(
        "statement, answer",
        [("alpha beta gamma delta epsilon", "Answer: yes"), ("alpha beta gamma delta zeta eta", "Answer: no")],
    )
    def test_judge_verdict_at_the_support_share(self, statement, answer):
        # 4 of 5 words is the support share; 4 of 6 falls short.
        assert _judge_verdict("Alpha beta, gamma and delta.", statement) == (answer, answer)

    @settings(max_examples=300, deadline=None)
    @given(_WORD_TEXTS, _WORD_TEXTS)
    def test_drawn_texts(self, context, continuation):
        assert overlap_scorer(context, continuation) == _set_overlap_score(context, continuation)
        answer, oracle = _judge_verdict(context, continuation)
        assert answer == oracle


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


def _plain_gen_key(req: GenRequest) -> str:
    """The generation key as json.dumps of its whole payload, the oracle
    that keeps the generation entries of every earlier version hitting."""
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


def _assert_strings_hash_as_json_dumps(texts: list[str]) -> None:
    digest = hashlib.sha256()
    _hash_json_strings(digest, texts)
    assert digest.hexdigest() == hashlib.sha256(json.dumps(texts, ensure_ascii=False)[1:-1].encode("utf-8")).hexdigest()


# A document-length text of every character kind the byte path escapes or passes.
_LONG_TEXT = "".join(f'Line {i}:\t"q" \\ back/slash \u2028\u2029\x7f é中🙂.\n' for i in range(3000))


class TestKeyEscapes:
    @settings(max_examples=300, deadline=None)
    @given(
        model=_KEY_TEXT,
        prompt=st.one_of(_KEY_TEXT, st.lists(_KEY_SENTENCE, max_size=6).map("".join)),
        max_tokens=st.integers(min_value=1, max_value=10**6),
        seed=st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63)),
    )
    def test_the_gen_key_equals_its_json_formula(self, model, prompt, max_tokens, seed):
        req = GenRequest(model=model, user_prompt=prompt, max_tokens=max_tokens, seed=seed)
        assert _canonical_gen_key(req) == _plain_gen_key(req)

    def test_a_document_length_prompt_keeps_its_json_key(self):
        req = GenRequest(model="m", user_prompt=_LONG_TEXT, max_tokens=1200, seed=0)
        assert len(req.user_prompt) > 100_000
        assert _canonical_gen_key(req) == _plain_gen_key(req)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_KEY_SENTENCE, max_size=8))
    def test_the_strings_equal_json_dumps_of_their_list(self, texts):
        _assert_strings_hash_as_json_dumps(texts)

    @pytest.mark.parametrize(
        "texts",
        [[], [""], ["", ""], ["a\x00b"], ["\x00"], ["a", "b\x00"], [_LONG_TEXT, "", _LONG_TEXT[:99]], ["\r\n"]],
        ids=["none", "one_empty", "two_empty", "a_nul", "only_a_nul", "a_nul_in_the_last", "long", "a_carriage_return"],
    )
    def test_the_strings_of_edge_lists_equal_json_dumps(self, texts):
        _assert_strings_hash_as_json_dumps(texts)

    def test_a_lone_surrogate_still_has_no_key(self):
        with pytest.raises(UnicodeEncodeError):
            _canonical_gen_key(GenRequest(model="m", user_prompt="Emoji \ud83d here."))


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


class _FakeResponse(tuple):
    """An answer as a session's ``post`` returns it: (status, headers, body),
    the body ``text`` if given, else the payload's JSON."""

    def __new__(cls, status: int, payload: dict | None = None, text: str = "", headers: dict | None = None):
        body = text.encode("utf-8") if text else json.dumps(payload or {}).encode("utf-8")
        return super().__new__(cls, (status, headers or {}, body))


class _FakeSession:
    """Answers its posts with ``responses`` in turn, recording each post's
    route path and decoded payload."""

    headers: dict = {}

    def __init__(self, responses: list[_FakeResponse]):
        self.responses = list(responses)
        self.posts: list[tuple[str, dict]] = []

    def post(self, path, body, headers):
        self.posts.append((path, json.loads(body)))
        return self.responses.pop(0)


class _EchoSession(_FakeSession):
    """Answers the first posts with the statuses of ``failures``, then each
    completions post as an endpoint that echoes every prompt as its context
    and the continuation ``draft`` as two tokens, scored by ``overlap_scorer``."""

    def __init__(self, draft: str, failures: list[int] = ()):
        super().__init__([_FakeResponse(status) for status in failures])
        self.draft = draft

    def post(self, path, body, headers):
        if self.responses:
            return super().post(path, body, headers)
        payload = json.loads(body)
        self.posts.append((path, payload))
        choices = []
        for index, prompt in enumerate(payload["prompt"]):
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
    Retry-After delay (delta-seconds, or the time until an HTTP-date), the
    header's part capped at MAX_RETRY_AFTER."""

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

    @pytest.mark.parametrize("status", [429, 503])
    def test_an_http_date_is_waited_until(self, status):
        # An HTTP-date has whole seconds, so up to one of the 30 has passed.
        when = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(seconds=30)
        assert 28.5 < self._first_wait(status, email.utils.format_datetime(when, usegmt=True)) <= 30.0

    def test_an_http_date_is_capped(self):
        when = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(hours=1)
        assert self._first_wait(429, email.utils.format_datetime(when, usegmt=True)) == MAX_RETRY_AFTER

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
        path, payload = session.posts[0]
        assert path == "/v1/chat/completions"
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
        [[0, None, 5], [0, 2], [0, 2.9, 5], [0, "2", 5], [0, True, 5]],
        ids=["a_null_offset", "an_offset_short", "a_fractional_offset", "a_string_offset", "a_true_offset"],
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

    def test_a_true_logprob_is_an_endpoint_error(self):
        # numpy reads true as 1.0, which would score the continuation as -0.5 + 1.0.
        payload = _completions_payload(["ab", " cd", " ef"], [None, -0.5, True], [0, 2, 5])
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        with pytest.raises(EndpointError, match="true or false in place of a number"):
            backend.score("m", "ab", " cd ef")

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
            # A count int() would take: a bool, a numeric string, a negative or a fraction.
            {**_CHAT_OK, "usage": {"prompt_tokens": True, "completion_tokens": 3}},
            {**_CHAT_OK, "usage": {"prompt_tokens": 7, "completion_tokens": "12"}},
            {**_CHAT_OK, "usage": {"prompt_tokens": -5, "completion_tokens": 3}},
            {**_CHAT_OK, "usage": {"prompt_tokens": 7, "completion_tokens": 7.9}},
            # Valid JSON, but text with no UTF-8 form to cache or record.
            {"choices": [{"message": {"content": "Summary: ok \ud83d"}}]},
        ],
        ids=[
            "no_choice",
            "null_content",
            "number_content",
            "usage_not_a_mapping",
            "null_prompt_tokens",
            "true_prompt_tokens",
            "string_completion_tokens",
            "negative_prompt_tokens",
            "fractional_completion_tokens",
            "lone_surrogate",
        ],
    )
    def test_a_chat_payload_it_cannot_read_is_an_endpoint_error_not_retried_or_cached(self, tmp_path, payload):
        session = _FakeSession([_FakeResponse(200, payload), _FakeResponse(200, _CHAT_OK)])
        client = LLMClient(HTTPBackend("http://host", session=session), cache_dir=tmp_path / "cache")
        with pytest.raises(EndpointError) as err:
            client.generate(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 200
        assert len(session.posts) == client.backend_calls == 1
        assert list((tmp_path / "cache").iterdir()) == []

    @pytest.mark.parametrize(
        "usage, counts",
        [(None, (0, 0)), ({"prompt_tokens": 7}, (7, 0))],
        ids=["no_usage", "no_completion_tokens"],
    )
    def test_an_absent_usage_count_is_zero(self, usage, counts):
        payload = {"choices": _CHAT_OK["choices"], **({} if usage is None else {"usage": usage})}
        backend = HTTPBackend("http://host", session=_FakeSession([_FakeResponse(200, payload)]))
        assert backend.complete(GenRequest(model="m", user_prompt="p")) == ("Summary: fine", *counts)

    def test_client_error_is_endpoint_error(self):
        session = _FakeSession([_FakeResponse(404, text="nope")])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(EndpointError) as err:
            backend.complete(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 404

    def test_malformed_200_body_is_endpoint_error(self):
        session = _FakeSession([_FakeResponse(200, text="<html>gateway</html>")])
        backend = HTTPBackend("http://host", session=session)
        with pytest.raises(EndpointError, match="malformed JSON") as err:
            backend.complete(GenRequest(model="m", user_prompt="p"))
        assert err.value.status == 200


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
        [(path, sent)] = session.posts
        assert path == "/v1/completions"
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

    # [False, True] would map to [0, 1] if a bool were taken for an index.
    @pytest.mark.parametrize("indices", [[0], [0, 1, 2], [0, 0], [False, True]])
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

            def post(self, path, body, headers):
                payload = json.loads(body)
                self.posts.append((path, payload))
                choices = []
                for index, prompt in enumerate(payload["prompt"]):
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
        assert [path for path, _ in session.posts] == ["/v1/completions"] * 2
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
