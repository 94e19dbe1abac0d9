from __future__ import annotations

import json
import random
import string
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.corpus import (
    _CONTROL_RE,
    ABBREVIATIONS,
    STOPWORDS,
    TOKEN_RE,
    TokenIndex,
    _protected_periods,
    _sentence_bounds,
    _transcript_turns,
    load_dataset,
    normalize_text,
    segment_sentences,
    tokenize,
)
from higen.errors import ConfigError, DatasetError

from conftest import DATA_DIR, load_jsonl


def _regex_normalize(raw: str) -> str:
    """Oracle: normalization as one regex over every character, the formula
    before ASCII text took its bytes path."""
    return _CONTROL_RE.sub("", raw.replace("\r\n", "\n").replace("\r", "\n"))


# Every C0 control, DEL, the C1 controls (U+0085 among them) and the
# newline pairs, among ordinary ASCII and non-ASCII characters.
_CONTROLS = [chr(c) for c in range(0x20)] + [chr(c) for c in range(0x7F, 0xA0)]
_NORMALIZE_ASCII = st.lists(
    st.sampled_from([c for c in _CONTROLS if c.isascii()] + ["\r\n", "\n\r", "a", " ", "Z.", "~"]), max_size=40
).map("".join)
_NORMALIZE_TEXTS = st.lists(
    st.sampled_from(_CONTROLS + ["\r\n", "\r\r\n", "a", " ", "é", "\u2028", "中", "🙂", "\xa0"]), max_size=40
).map("".join)


class TestNormalize:
    def test_crlf_collapsed(self):
        assert normalize_text("a\r\nb") == "a\nb"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_control_chars_stripped(self):
        assert normalize_text("x\u0000y") == "xy"

    def test_tab_and_newline_survive(self):
        assert normalize_text("a\tb\nc") == "a\tb\nc"

    def test_lone_carriage_return(self):
        assert normalize_text("a\rb") == "a\nb"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_NORMALIZE_ASCII, _NORMALIZE_TEXTS))
    def test_equals_the_regex_formula(self, raw):
        assert normalize_text(raw) == _regex_normalize(raw)

    def test_every_ascii_control_but_tab_and_newline_is_stripped(self):
        raw = "".join(map(chr, range(0x80))) + "\r\n\r"
        assert raw.isascii()
        printable = "".join(map(chr, range(0x20, 0x7F)))
        assert normalize_text(raw) == _regex_normalize(raw) == "\t\n\n" + printable + "\n\n"


class TestProseSegmentation:
    def test_empty_document(self):
        assert segment_sentences("") == []

    def test_single_sentence(self):
        [s] = segment_sentences("Hello world.")
        assert s.index == 0
        assert s.text == "Hello world."
        assert s.span == (0, 12)

    def test_fixture_corpus_exact(self):
        for case in load_jsonl("segmentation_cases.jsonl"):
            text = normalize_text(case["text"])
            got = [s.text for s in segment_sentences(text)]
            assert got == case["expected"], f"segmentation mismatch on {case['text']!r}"

    def test_spans_reference_source_text(self):
        text = normalize_text("Dr. Smith arrived. He left. The end came fast.")
        sentences = segment_sentences(text)
        for s in sentences:
            assert text[s.span[0] : s.span[1]] == s.text
        starts = [s.span[0] for s in sentences]
        assert starts == sorted(starts)
        for prev, cur in zip(sentences, sentences[1:]):
            assert prev.span[1] <= cur.span[0]

    def test_unterminated_text_is_one_sentence(self):
        [s] = segment_sentences("no punctuation at all")
        assert s.text == "no punctuation at all"


_WORDS = st.sampled_from(["alpha", "bravo", "delta", "report", "budget", "vote", "Falcon", "100"])


@st.composite
def prose_texts(draw):
    n_sentences = draw(st.integers(min_value=1, max_value=6))
    parts = []
    for _ in range(n_sentences):
        words = draw(st.lists(_WORDS, min_size=1, max_size=6))
        sentence = " ".join(words).capitalize() + draw(st.sampled_from([".", "!", "?"]))
        parts.append(sentence)
    return " ".join(parts)


class TestSegmentationProperties:
    @settings(max_examples=60, deadline=None)
    @given(prose_texts())
    def test_nonwhitespace_characters_preserved(self, text):
        sentences = segment_sentences(normalize_text(text))
        joined = "".join(s.text for s in sentences)
        assert "".join(joined.split()) == "".join(normalize_text(text).split())

    @settings(max_examples=60, deadline=None)
    @given(prose_texts())
    def test_rejoin_resegment_idempotent(self, text):
        first = segment_sentences(normalize_text(text))
        rejoined = " ".join(s.text for s in first)
        second = segment_sentences(normalize_text(rejoined))
        assert len(second) == len(first)


def _walk_back_is_protected(text: str, dot_pos: int) -> bool:
    """Oracle: the abbreviation check as a walk back, one character at a
    time, to the whitespace before the token that the period ends."""
    start = dot_pos
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    return text[start : dot_pos + 1].lstrip("([{\"'") in ABBREVIATIONS


def _loop_prose_spans(text: str, offset: int = 0) -> list[tuple[int, int]]:
    """Oracle: the character loop that segmented prose before the regex.

    Scan for a terminal run; split after it when whitespace follows and the
    next non-whitespace character is uppercase or a digit, unless the run is a
    lone period that ends an abbreviation; then trim every span and drop the
    empty ones."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in ".!?":
            j = i
            while j + 1 < n and text[j + 1] in ".!?":
                j += 1
            k = j + 1
            if k < n and text[k].isspace():
                t = k
                while t < n and text[t].isspace():
                    t += 1
                next_starts = t < n and (text[t].isupper() or text[t].isdigit())
                protected = i == j and text[i] == "." and _walk_back_is_protected(text, i)
                if next_starts and not protected:
                    spans.append((start, j + 1))
                    start = t
                    i = t
                    continue
            i = j + 1
        else:
            i += 1
    if start < n:
        spans.append((start, n))
    trimmed = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if e > s:
            trimmed.append((s + offset, e + offset))
    return trimmed


def _oracle_sentences(text: str, kind: str) -> list[tuple[str, tuple[int, int], str | None]]:
    """(text, span, speaker) of each sentence, segmented with the loop oracle."""
    regions = [(None, 0, len(text))] if kind == "prose" else _transcript_turns(text)
    return [
        (text[s:e], (s, e), speaker)
        for speaker, start, end in regions
        for s, e in _loop_prose_spans(text[start:end], offset=start)
    ]


def _sentences(text: str, kind: str) -> list[tuple[str, tuple[int, int], str | None]]:
    return [(s.text, s.span, s.speaker) for s in segment_sentences(text, kind)]


# Every whitespace kind str.isspace accepts that a document may carry,
# including the C1 next-line control, no-break space, the line and paragraph
# separators and the ideographic space.
_WHITESPACE = [" ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
               "\u1680", "\u2003", "\u2028", "\u2029", "\u202f", "\u3000"]
_TERMINAL_RUNS = [".", "!", "?", "..", "...", "?!", "!!", ".?"]
# Non-ASCII uppercase letters and digits start a sentence; lowercase,
# superscript and fraction characters show which ones do not.
_WORD_STARTS = ["A", "word", "Word", "É", "Ω", "Ж", "ß", "é", "1", "42", "٣", "²", "½", "x.y", "-", ")"]
_SPEAKER_LINES = ["\nAlice: ", "\nProject Manager: ", "\nGrad A: ", "\n=====\n"]
# Abbreviations behind openers, and glued to a word or to more openers than
# fit in the window that the abbreviation check reads.
_ABBREVIATION_LEADS = ["", "(", "[", "{", '"', "'", '("', "((((", "x", "pre-", "([{\"'(", "x((((((("]
_ABBREVIATION_TOKENS = st.builds(
    lambda lead, abbreviation: lead + abbreviation,
    st.sampled_from(_ABBREVIATION_LEADS),
    st.sampled_from(sorted(ABBREVIATIONS)),
)
_SEGMENTATION_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(_WHITESPACE + _TERMINAL_RUNS + _WORD_STARTS + _SPEAKER_LINES),
        _ABBREVIATION_TOKENS,
    ),
    max_size=40,
).map("".join)


def _prose_spans(text: str) -> list[tuple[int, int]]:
    """The sentence spans of ``text`` as one prose region."""
    bounds = _sentence_bounds(text, [(None, 0, len(text))])
    return list(zip(bounds[0::2], bounds[1::2]))


def _govreport_length_text(seed: int, pieces: int = 40_000) -> str:
    """A text of ``pieces`` draws from the pieces of ``_SEGMENTATION_TEXTS``,
    about the length of a GovReport document (~130k characters)."""
    rng = random.Random(seed)
    simple = _WHITESPACE + _TERMINAL_RUNS + _WORD_STARTS + _SPEAKER_LINES
    abbreviations = sorted(ABBREVIATIONS)
    return "".join(
        rng.choice(_ABBREVIATION_LEADS) + rng.choice(abbreviations) if rng.random() < 0.1 else rng.choice(simple)
        for _ in range(pieces)
    )


class TestRegexSegmenterMatchesLoopOracle:
    @settings(max_examples=400, deadline=None)
    @given(_SEGMENTATION_TEXTS)
    def test_prose_spans_equal_oracle(self, text):
        assert _prose_spans(text) == _loop_prose_spans(text)

    @settings(max_examples=200, deadline=None)
    @given(_SEGMENTATION_TEXTS, st.sampled_from(["prose", "transcript"]))
    def test_sentences_equal_oracle(self, text, kind):
        assert _sentences(text, kind) == _oracle_sentences(text, kind)

    def test_fixture_cases_equal_oracle(self):
        for case in load_jsonl("segmentation_cases.jsonl"):
            text = normalize_text(case["text"])
            for kind in ("prose", "transcript"):
                assert _sentences(text, kind) == _oracle_sentences(text, kind), case["text"]

    @pytest.mark.parametrize(
        "name, schema", [("minicorpus.jsonl", "scrolls_govreport"), ("qmsum_record.jsonl", "scrolls_qmsum")]
    )
    def test_dataset_documents_equal_oracle(self, name, schema):
        for doc in load_dataset(DATA_DIR / name, schema):
            assert doc.sentences
            assert _sentences(doc.normalized_text, doc.kind) == _oracle_sentences(doc.normalized_text, doc.kind)

    @pytest.mark.parametrize(
        "text",
        [
            "((((Dr. Smith came.",
            "xMr. Smith came.",
            "pre-U.S. Army units left.",
            "Dr. Smith came.",
            "approx. Ten left.",
            "(approx. Ten left.",
            "xapprox. Ten left.",
            "It rained. Mr. Smith came. Then xMr. Jones left. The U.S. Army and the pre-U.S. Army met.",
            'He said "(Dr. No" and ((((((((Prof. Doe agreed. Fine! U.S. Done? Yes.',
            "\u3000Dr. Smith\u2003e.g. Ten\x85etc. Nine",
        ],
    )
    def test_abbreviation_windows_equal_oracle(self, text):
        assert _prose_spans(text) == _loop_prose_spans(text)
        for kind in ("prose", "transcript"):
            assert _sentences(text, kind) == _oracle_sentences(text, kind)

    @settings(max_examples=400, deadline=None)
    @given(_SEGMENTATION_TEXTS)
    def test_is_protected_equals_the_walk_back_at_every_period(self, text):
        periods = [pos for pos, char in enumerate(text) if char == "."]
        assert _protected_periods(text) == [pos for pos in periods if _walk_back_is_protected(text, pos)], text

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_govreport_length_text_equals_oracle(self, seed):
        text = _govreport_length_text(seed)
        assert len(text) > 100_000
        spans = _prose_spans(text)
        assert len(spans) > 1000
        assert spans == _loop_prose_spans(text)
        for kind in ("prose", "transcript"):
            assert _sentences(text, kind) == _oracle_sentences(text, kind)

    def test_every_abbreviation_ends_with_a_letter_and_a_period(self):
        # The protection scan relies on it: a protected period is then the
        # first mark of its run, so marking it leaves the run's end in place.
        assert all(len(a) >= 2 and a[-1] == "." and a[-2].isalpha() for a in ABBREVIATIONS)

    def test_long_runs_of_marks_split_in_linear_time(self):
        # Runs of 20,000 marks that whitespace does not follow: a regex that
        # retries a run from each of its marks takes seconds on each.
        text = "It began " + "." * 20_000 + "x then. Next " + "?!" * 10_000 + "Y ends! 42 more."
        started = time.perf_counter()
        spans = _prose_spans(text)
        elapsed = time.perf_counter() - started
        assert spans == _loop_prose_spans(text)
        assert len(spans) == 3
        assert elapsed < 1.0, f"segmenting {len(text)} characters took {elapsed:.2f} s"


def _loop_token_index(texts: list[str]) -> tuple[dict[str, int], list[int], list[int], list[bool]]:
    """Oracle: (vocab, ids, lengths, stop) of the token index, built by the
    dict loop that assigned ids before the defaultdict lookup."""
    vocab: dict[str, int] = {}
    ids: list[int] = []
    lengths: list[int] = []
    for text in texts:
        tokens = tokenize(text)
        ids.extend(vocab.setdefault(token, len(vocab)) for token in tokens)
        lengths.append(len(tokens))
    return vocab, ids, lengths, [token in STOPWORDS for token in vocab]


def _assert_index_equals_oracle(texts: list[str]) -> None:
    index = TokenIndex.build(texts)
    vocab, ids, lengths, stop = _loop_token_index(texts)
    # A plain dict: a defaultdict would add every token a later caller looks up.
    assert type(index.vocab) is dict and list(index.vocab.items()) == list(vocab.items())
    assert index.ids.dtype == np.int32 and index.ids.tolist() == ids
    assert index.lengths.dtype == np.int64 and index.lengths.tolist() == lengths
    assert index.stop.tolist() == stop


class TestTokenIndexMatchesLoopOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["the", "The", "of", "Budget", "budget", "42", "x-9", "É", ""])).map(" ".join)))
    def test_texts_equal_oracle(self, texts):
        _assert_index_equals_oracle(texts)

    @pytest.mark.parametrize(
        "name, schema", [("minicorpus.jsonl", "scrolls_govreport"), ("qmsum_record.jsonl", "scrolls_qmsum")]
    )
    def test_dataset_documents_equal_oracle(self, name, schema):
        for doc in load_dataset(DATA_DIR / name, schema):
            _assert_index_equals_oracle([s.text for s in doc.sentences])


def _regex_tokenize(text: str) -> list[str]:
    """Oracle: the tokens as one regex over the lowercase, the formula before
    tokenize split the translation of its UTF-8 bytes."""
    return TOKEN_RE.findall(text.lower())


# ASCII pieces among characters whose lowercase is ASCII (KELVIN SIGN), grows
# (U+0130 lowercases to "i" and a combining dot), is another letter (É, ß, ſ)
# or is no token at all (NBSP, full-width digits, a lone surrogate).
_TOKENIZE_TEXTS = st.lists(
    st.one_of(
        st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + string.whitespace, max_size=8),
        st.sampled_from(["\u212a", "\u0130", "\xc9", "\xdf", "\u017f", "\xa0", "\uff11\uff12", "\ud800"]),
    ),
    max_size=30,
).map("".join)


class TestTokenizeMatchesRegexOracle:
    @settings(max_examples=400, deadline=None)
    @given(_TOKENIZE_TEXTS)
    def test_texts_equal_oracle(self, text):
        assert tokenize(text) == _regex_tokenize(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("Budget \u212aelvin", ["budget", "kelvin"]),
            ("\u0130stanbul x", ["i", "stanbul", "x"]),
            ("caf\xe9 A1-b2_c\xa0\uff11", ["caf", "a1", "b2", "c"]),
            ("ab\ud800cd \udfff", ["ab", "cd"]),
            ("", []),
        ],
    )
    def test_non_ascii_characters(self, text, tokens):
        assert tokenize(text) == _regex_tokenize(text) == tokens

    @pytest.mark.parametrize(
        "name, schema", [("minicorpus.jsonl", "scrolls_govreport"), ("qmsum_record.jsonl", "scrolls_qmsum")]
    )
    def test_dataset_sentences_and_documents_equal_oracle(self, name, schema):
        for doc in load_dataset(DATA_DIR / name, schema):
            for text in [doc.normalized_text, *(s.text for s in doc.sentences)]:
                assert tokenize(text) == _regex_tokenize(text)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_govreport_length_text_equals_oracle(self, seed):
        # The text holds non-ASCII whitespace; its ASCII part is tested too.
        text = _govreport_length_text(seed)
        for variant in (text, text.encode("ascii", "ignore").decode()):
            assert tokenize(variant) == _regex_tokenize(variant)


class TestTranscriptSegmentation:
    def test_speakers_assigned(self):
        text = normalize_text("Alice: The budget passed. We adjourned.\nBob: I object to that.")
        sentences = segment_sentences(text, kind="transcript")
        assert [s.text for s in sentences] == ["The budget passed.", "We adjourned.", "I object to that."]
        assert [s.speaker for s in sentences] == ["Alice", "Alice", "Bob"]

    def test_multiline_turn(self):
        text = normalize_text("Alice: First point here.\nStill her turn. Done now.\nBob: Reply.")
        sentences = segment_sentences(text, kind="transcript")
        assert [s.speaker for s in sentences] == ["Alice", "Alice", "Alice", "Bob"]

    def test_untagged_prefix_gets_unknown_speaker(self):
        sentences = segment_sentences("hello there\nBob: Reply.", kind="transcript")
        assert sentences[0].speaker == "unknown"
        assert sentences[-1].speaker == "Bob"

    def test_fence_lines_skipped(self):
        sentences = segment_sentences("==========\nBob: Reply.\n==========", kind="transcript")
        assert [s.text for s in sentences] == ["Reply."]

    def test_transcript_spans_valid(self):
        text = normalize_text("Alice: The budget passed. We adjourned.\nBob: I object.")
        for s in segment_sentences(text, kind="transcript"):
            assert text[s.span[0] : s.span[1]] == s.text


class TestLoadDataset:
    def test_minimal_govreport_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"id":"d1","input":"A. B.","output":"A."}\n')
        [doc] = load_dataset(path, "scrolls_govreport")
        assert doc.id == "d1"
        assert len(doc.sentences) == 2
        assert doc.reference_summary == "A."
        assert doc.kind == "prose"

    def test_limit_zero(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text('{"id":"d1","input":"A.","output":"A."}\n')
        assert load_dataset(path, "scrolls_govreport", limit=0) == []

    def test_limit_is_prefix(self):
        path = DATA_DIR / "minicorpus.jsonl"
        full = load_dataset(path, "scrolls_govreport")
        two = load_dataset(path, "scrolls_govreport", limit=2)
        assert [d.id for d in two] == [d.id for d in full][:2]

    def test_qmsum_record_query_and_speakers(self):
        [doc] = load_dataset(DATA_DIR / "qmsum_record.jsonl", "scrolls_qmsum")
        assert doc.query
        assert doc.kind == "transcript"
        assert doc.sentences
        assert all(s.speaker for s in doc.sentences)
        speakers = {s.speaker for s in doc.sentences}
        assert "Project Manager" in speakers
        assert "Marketing" in speakers

    def test_qmsum_query_prefix_is_normalized(self, tmp_path):
        path = tmp_path / "q.jsonl"
        text = "What was decided?\r\nAbout the\x07 date?\r\n=====\r\nAnn: We met. Bo: Fine.\r\n"
        path.write_text(json.dumps({"id": "q1", "input": text, "output": "Met."}) + "\n", encoding="utf-8")
        [doc] = load_dataset(path, "scrolls_qmsum")
        assert doc.query == "What was decided?\nAbout the date?"
        assert doc.normalized_text == "Ann: We met. Bo: Fine.\n"

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"d1","input":"A.","output":"A."}\nnot json\n')
        with pytest.raises(DatasetError, match=":2:"):
            load_dataset(path, "scrolls_govreport")

    def test_undecodable_byte_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id":"d1","input":"A.","output":"A."}\n\n{"id":"d2","input":"B\xff.","output":"B."}\n')
        with pytest.raises(DatasetError, match=r"bad\.jsonl:3: .*can't decode byte 0xff"):
            load_dataset(path, "scrolls_govreport")

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"d1","input":"A."}\n')
        with pytest.raises(DatasetError, match="'output'"):
            load_dataset(path, "scrolls_govreport")

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"id": "d1", "input": "A.", "output": None}, None),
            ({"id": 7, "input": "A.", "output": "A."}, None),
            ({"id": "d1", "input": None, "output": "A."}, "'input' must be a string"),
            ({"id": "d1", "input": ["A."], "output": "A."}, "'input' must be a string"),
            ({"id": "d1", "input": 12, "output": "A."}, "'input' must be a string"),
            ({"id": "d1", "input": "A.", "output": ["A."]}, "'output' must be a string or null"),
            ({"id": "d1", "input": "A.", "output": 1.5}, "'output' must be a string or null"),
            ({"id": "d1", "input": "A.", "output": False}, "'output' must be a string or null"),
            ({"id": True, "input": "A.", "output": "A."}, "'id' must be a string or an integer"),
            ({"id": 1.0, "input": "A.", "output": "A."}, "'id' must be a string or an integer"),
            ({"id": None, "input": "A.", "output": "A."}, "'id' must be a string or an integer"),
            ({"id": {"n": 1}, "input": "A.", "output": "A."}, "'id' must be a string or an integer"),
        ],
        ids=[
            "null_output",
            "integer_id",
            "null_input",
            "list_input",
            "number_input",
            "list_output",
            "number_output",
            "bool_output",
            "bool_id",
            "float_id",
            "null_id",
            "object_id",
        ],
    )
    def test_a_field_of_another_type_is_a_dataset_error_not_text(self, tmp_path, record, field):
        path = tmp_path / "typed.jsonl"
        path.write_text('{"id":"d0","input":"B.","output":"B."}\n' + json.dumps(record) + "\n")
        if field is None:
            doc = load_dataset(path, "scrolls_govreport")[1]
            assert doc.id == str(record["id"]) and doc.normalized_text == "A."
            assert doc.reference_summary == record["output"]
            return
        with pytest.raises(DatasetError, match=rf"typed\.jsonl:2: field {field}$"):
            load_dataset(path, "scrolls_govreport")

    @pytest.mark.parametrize(
        "schema, record, field",
        [
            ("scrolls_govreport", {"id": "d1", "input": "Emoji \ud83d here.", "output": "A."}, "input"),
            ("scrolls_govreport", {"id": "d1", "input": "A.", "output": "Tail \udc00"}, "output"),
            ("scrolls_govreport", {"id": "d\ud800", "input": "A.", "output": "A."}, "id"),
            ("scrolls_qmsum", {"id": "q1", "input": "Why \ud83d?\n=====\nAnn: We met.", "output": "A."}, "input"),
        ],
        ids=["input", "output", "id", "qmsum_query"],
    )
    def test_a_lone_surrogate_is_a_dataset_error_naming_its_field(self, tmp_path, schema, record, field):
        # A JSON "\ud83d" escape loads as a lone surrogate, which no prompt,
        # cache key or record can encode as UTF-8.
        path = tmp_path / "lone.jsonl"
        path.write_text('{"id":"d0","input":"B.","output":"B."}\n' + json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match=rf"lone\.jsonl:2: field '{field}' holds a lone surrogate"):
            load_dataset(path, schema)

    def test_a_surrogate_pair_escape_is_one_character_and_loads(self, tmp_path):
        path = tmp_path / "pair.jsonl"
        path.write_text('{"id":"d1","input":"Smile \\ud83d\\ude42 here.","output":"\\u00e9"}\n')
        [doc] = load_dataset(path, "scrolls_govreport")
        assert doc.normalized_text == "Smile \U0001f642 here." and doc.reference_summary == "\u00e9"

    def test_a_generic_field_of_another_type_is_named_as_mapped(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"key":"d","text":["A."],"summary":"A."}\n')
        field_map = {"id_field": "key", "input_field": "text", "output_field": "summary"}
        with pytest.raises(DatasetError, match=r"g\.jsonl:1: field 'text' must be a string$"):
            load_dataset(path, "generic_jsonl", field_map=field_map)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id":"d","input":"A.","output":"A."}\n{"id":"d","input":"B.","output":"B."}\n')
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path, "scrolls_govreport")

    def test_generic_schema_needs_field_map(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"key":"d","text":"A.","summary":"A."}\n')
        with pytest.raises(ConfigError):
            load_dataset(path, "generic_jsonl")
        [doc] = load_dataset(
            path,
            "generic_jsonl",
            field_map={"id_field": "key", "input_field": "text", "output_field": "summary"},
        )
        assert doc.id == "d"
        assert doc.reference_summary == "A."

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ConfigError):
            load_dataset(path, "bogus")
