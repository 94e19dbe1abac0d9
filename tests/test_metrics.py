from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.errors import DatasetError
from higen.llm_client import LLMClient
from higen.metrics import (
    SUPPORTED,
    UNPARSEABLE,
    UNSUPPORTED,
    betainc_regularized,
    extract_facts,
    factscore,
    lcs_length,
    load_external_scores,
    paired_t_test,
    rouge_l,
    student_t_two_sided_p,
    summary_tokens,
    tokenize,
    verify_fact,
)

from conftest import ScriptedBackend, doc_from_sentences


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("The cat, sat.") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alnum_runs(self):
        assert tokenize("A1-b2") == ["a1", "b2"]

    def test_summary_tokens(self):
        assert summary_tokens("a b c") == 3
        assert summary_tokens("") == 0
        assert summary_tokens("don't stop") == 3


def _recursive_lcs(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Exponential-time reference; memoized only to keep the suite fast."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def _dp_lcs(a: list[str], b: list[str]) -> int:
    """The O(|a|*|b|) dynamic program, a second oracle."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


class TestLcs:
    def test_identical(self):
        assert lcs_length(["a", "b", "c"], ["a", "b", "c"]) == 3

    def test_disjoint(self):
        assert lcs_length(["a", "b"], ["c", "d"]) == 0

    def test_200_random_pairs_match_recursive_oracle(self):
        import random

        rng = random.Random(31337)
        alphabet = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            b = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            assert lcs_length(list(a), list(b)) == _recursive_lcs(a, b)

    @pytest.mark.parametrize("alphabet_size", [2, 50])
    def test_lengths_0_to_400_match_dp_exactly(self, alphabet_size):
        # lengths straddle the 30-bit digits of Python ints and reach 400
        import random

        rng = random.Random(1986 + alphabet_size)
        words = [f"w{i}" for i in range(alphabet_size)]
        lengths = [0, 1, 2, 3, 29, 30, 31, 59, 60, 61, 64, 127, 128, 200, 399, 400]
        pairs = [(la, rng.choice(lengths)) for la in lengths] + [(400, 400), (0, 400), (400, 1)]
        for la, lb in pairs:
            a = [rng.choice(words) for _ in range(la)]
            b = [rng.choice(words) for _ in range(lb)]
            expected = _dp_lcs(a, b)
            assert lcs_length(a, b) == expected
            assert lcs_length(b, a) == expected
        a = [rng.choice(words) for _ in range(400)]
        assert lcs_length(a, list(a)) == 400
        assert lcs_length(a, a[::3]) == len(a[::3])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), max_size=15),
        st.lists(st.sampled_from("abcd"), max_size=15),
        st.sampled_from("abcd"),
    )
    def test_bounded_and_monotone(self, a, b, extra):
        base = lcs_length(a, b)
        assert base <= min(len(a), len(b))
        assert lcs_length(a + [extra], b + [extra]) >= base + 1


class TestRougeL:
    def test_identical_texts(self):
        score = rouge_l("the cat sat", "the cat sat")
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_empty_candidate(self):
        score = rouge_l("", "a")
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_empty_reference(self):
        assert rouge_l("a", "").f1 == 0.0

    def test_200_random_pairs_match_formula(self):
        import random

        rng = random.Random(777)
        words = ["red", "blue", "green", "tall", "short", "river", "stone"]
        for _ in range(200):
            cand = " ".join(rng.choice(words) for _ in range(rng.randint(0, 25)))
            ref = " ".join(rng.choice(words) for _ in range(rng.randint(0, 25)))
            score = rouge_l(cand, ref)
            ct, rt = tokenize(cand), tokenize(ref)
            if not ct or not rt:
                assert score.f1 == 0.0
                continue
            lcs = lcs_length(ct, rt)
            p, r = lcs / len(ct), lcs / len(rt)
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert score.f1 == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(alphabet="ab x", min_size=1, max_size=20),
        st.text(alphabet="ab x", min_size=1, max_size=20),
    )
    def test_precision_recall_transpose_symmetry(self, a, b):
        assert rouge_l(a, b).precision == pytest.approx(rouge_l(b, a).recall)

    def test_f1_harmonic_mean_invariant(self):
        score = rouge_l("a b c d", "a b x y z")
        p, r = score.precision, score.recall
        assert score.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def _judge_client(responses: list[str], tmp_path) -> LLMClient:
    return LLMClient(ScriptedBackend(responses), cache_dir=tmp_path / "cache")


class TestFactScoring:
    def test_extract_facts_parses_numbered_list(self, tmp_path):
        client = _judge_client(["1. X.\n2. Y."], tmp_path)
        assert extract_facts("some summary", client, "judge") == ["X.", "Y."]

    def test_empty_summary_short_circuits(self, tmp_path):
        backend = ScriptedBackend([])
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        assert extract_facts("", client, "judge") == []
        assert backend.requests == []

    def test_verify_yes(self, tmp_path):
        doc = doc_from_sentences(["The sky is blue."])
        client = _judge_client(["Answer: yes"], tmp_path)
        assert verify_fact("sky is blue", doc, client, "judge") == SUPPORTED

    def test_verify_no(self, tmp_path):
        doc = doc_from_sentences(["The sky is blue."])
        client = _judge_client(["Answer: no"], tmp_path)
        assert verify_fact("sky is green", doc, client, "judge") == UNSUPPORTED

    def test_verify_unparseable(self, tmp_path):
        doc = doc_from_sentences(["The sky is blue."])
        client = _judge_client(["maybe"], tmp_path)
        assert verify_fact("sky is blue", doc, client, "judge") == UNPARSEABLE

    def test_placeholders_inside_the_document_stay_literal(self, tmp_path):
        doc = doc_from_sentences(["Quote {statement} and {document} verbatim."])
        backend = ScriptedBackend(["Answer: yes"])
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        assert verify_fact("FACT", doc, client, "judge") == SUPPORTED
        prompt = backend.requests[0].user_prompt
        assert "Quote {statement} and {document} verbatim." in prompt
        assert prompt.count("FACT") == 1

    def test_factscore_two_of_three(self, tmp_path):
        doc = doc_from_sentences(["Facts live here."])
        client = _judge_client(
            ["1. A.\n2. B.\n3. C.", "Answer: yes", "Answer: yes", "Answer: no"], tmp_path
        )
        report = factscore("summary", doc, client, "judge")
        assert report.score == pytest.approx(2.0 / 3.0)
        assert len(report.facts) == 3

    def test_factscore_degenerate_denominator(self, tmp_path):
        doc = doc_from_sentences(["Facts live here."])
        client = _judge_client(["1. A.\n2. B.", "hmm", "dunno"], tmp_path)
        report = factscore("summary", doc, client, "judge")
        assert report.score is None

    def test_factscore_extraction_failure_absent_score(self, tmp_path):
        doc = doc_from_sentences(["Facts live here."])
        client = _judge_client(["no numbered list in sight"], tmp_path)
        report = factscore("summary", doc, client, "judge")
        assert report.score is None
        assert report.facts == ()

    def test_factscore_order_invariance(self, tmp_path):
        doc = doc_from_sentences(["Facts live here."])
        a = factscore("s", doc, _judge_client(["1. A.\n2. B.", "Answer: yes", "Answer: no"], tmp_path / "a"), "judge")
        b = factscore("s", doc, _judge_client(["1. B.\n2. A.", "Answer: no", "Answer: yes"], tmp_path / "b"), "judge")
        assert a.score == b.score

    def test_chunked_document_any_yes_wins(self, tmp_path, monkeypatch):
        import higen.metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "VERIFY_CHUNK_TOKENS", 8)
        monkeypatch.setattr(metrics_mod, "VERIFY_CHUNK_OVERLAP", 2)
        long_doc = doc_from_sentences(["Word number %d fills space." % i for i in range(20)])
        client = _judge_client(["Answer: no", "Answer: yes"], tmp_path)
        # chunking parameters are module constants read at call time
        verdict = metrics_mod.verify_fact("statement", long_doc, client, "judge")
        assert verdict == SUPPORTED


class TestPairedTTest:
    @staticmethod
    def _fixture_d(t_target: float, n: int = 10) -> list[float]:
        base = list(range(n))
        mean = sum(base) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in base) / (n - 1))
        z = [(x - mean) / sd for x in base]
        return [t_target / math.sqrt(n) + zi for zi in z]

    def test_identical_samples_p_one(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p == 1.0
        assert result.t == 0.0
        assert result.df == 2

    def test_swap_negates_t_keeps_p(self):
        a = [1.0, 2.0, 4.0, 8.0]
        b = [0.5, 2.5, 3.0, 9.0]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert rev.t == pytest.approx(-fwd.t)
        assert rev.p == pytest.approx(fwd.p)

    def test_derived_fixture_t_2262_df9(self):
        d = self._fixture_d(2.262)
        result = paired_t_test(d, [0.0] * 10)
        assert result.t == pytest.approx(2.262, abs=1e-12)
        assert result.df == 9
        assert result.p == pytest.approx(0.0500, abs=5e-4)

    def test_constant_shift_invariance(self):
        a = [1.0, 2.0, 4.0, 8.0, 3.0]
        b = [0.5, 2.5, 3.0, 9.0, 2.0]
        base = paired_t_test(a, b)
        shifted = paired_t_test([x + 17.5 for x in a], [y + 17.5 for y in b])
        assert shifted.t == pytest.approx(base.t)
        assert shifted.p == pytest.approx(base.p)

    def test_zero_variance_nonzero_mean(self):
        result = paired_t_test([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert result.p == 0.0
        assert math.isinf(result.t)

    def test_length_mismatch_and_small_n(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0])


def _oracle_p(t: float, df: int) -> float:
    mp.mp.dps = 30
    tv, v = mp.mpf(abs(t)), mp.mpf(df)
    coefficient = mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
    pdf = lambda s: coefficient * (1 + s * s / v) ** (-(v + 1) / 2)
    return float(2 * mp.quad(pdf, [tv, mp.inf]))


class TestIncompleteBeta:
    def test_symmetry_identity(self):
        for a, b, x in [(2.0, 3.0, 0.4), (0.5, 0.5, 0.7), (5.0, 1.0, 0.2)]:
            assert betainc_regularized(a, b, x) == pytest.approx(
                1.0 - betainc_regularized(b, a, 1.0 - x), abs=1e-12
            )

    def test_grid_against_integration_oracle(self):
        for t in [-10.0, -5.0, -2.5, -1.0, 0.0, 0.5, 1.0, 2.5, 5.0, 10.0]:
            for df in [1, 2, 3, 5, 9, 20, 40, 60]:
                assert student_t_two_sided_p(t, df) == pytest.approx(_oracle_p(t, df), abs=1e-6)


class TestExternalScores:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "a", "score": 0.5}\n{"doc_id": "b", "score": 0.75}\n')
        assert load_external_scores(path, "summac") == {"a": 0.5, "b": 0.75}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "a", "score": 0.5}\n{"doc_id": "a", "score": 0.6}\n')
        with pytest.raises(DatasetError, match="duplicate"):
            load_external_scores(path, "summac")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("")
        assert load_external_scores(path, "summac") == {}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("junk\n")
        with pytest.raises(DatasetError, match=":1:"):
            load_external_scores(path, "summac")
