from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from higen.attribution import (
    AttributionParams,
    ablate,
    attribution_highlights,
    contextcite_attribute,
    fit_lasso,
    lambda_max,
    logit_scale,
    sample_masks,
)
from higen.corpus import make_document
from higen.errors import AttributionError, DomainError
from higen.llm_client import LLMClient, MockBackend, ScoreRequest, overlap_scorer, prompt_hash

from conftest import doc_from_sentences

# 12 sentences with disjoint token sets so substring presence is unambiguous.
_SYNTH_SENTENCES = [
    "Anchor apple arrives.",
    "Bridge banana builds.",
    "Canyon cherry crosses.",
    "Desert damson drifts.",
    "Ember elder evolves.",
    "Forest feijoa flows.",
    "Garnet guava glints.",
    "Hollow honeyberry hums.",
    "Island icaco idles.",
    "Jungle jackfruit jumps.",
    "Keystone kiwi kneels.",
    "Lagoon lychee lingers.",
]


def _presence_scorer(doc, weight_fn):
    """Scorer that recovers the ablation mask from sentence presence in the context."""

    def score(context: str, continuation: str) -> float:
        bits = [1 if s.text in context else 0 for s in doc.sentences]
        logit = weight_fn(bits)
        # invert logit -> log p so that logit_scale(score) == logit
        return -math.log1p(math.exp(-logit))

    return score


def _client_with_scorer(tmp_path, score_fn) -> LLMClient:
    return LLMClient(MockBackend(score_fn=score_fn), cache_dir=tmp_path / "cache")


class TestSampleMasks:
    def test_anchor_mask_is_all_ones(self):
        masks = sample_masks(n=3, m=2, keep_prob=0.5, seed=11)
        assert tuple(masks[0]) == (1, 1, 1)
        assert len(masks) == 2
        assert any(tuple(masks[1]))

    def test_determinism(self):
        a = sample_masks(n=10, m=50, keep_prob=0.4, seed=9)
        b = sample_masks(n=10, m=50, keep_prob=0.4, seed=9)
        assert [tuple(m) for m in a] == [tuple(m) for m in b]

    def test_keep_frequency_within_bounds(self):
        masks = sample_masks(n=10, m=1000, keep_prob=0.5, seed=7)
        freq = np.array([tuple(m) for m in masks]).mean(axis=0)
        assert (freq >= 0.45).all()
        assert (freq <= 0.55).all()

    def test_no_all_zero_masks(self):
        masks = sample_masks(n=2, m=200, keep_prob=0.2, seed=3)
        assert all(any(tuple(m)) for m in masks)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_masks(n=0, m=2, keep_prob=0.5, seed=0)
        with pytest.raises(ValueError):
            sample_masks(n=2, m=1, keep_prob=0.5, seed=0)
        with pytest.raises(ValueError):
            sample_masks(n=2, m=2, keep_prob=1.0, seed=0)


def _row_loop_masks(n, m, keep_prob, seed):
    """The masks as drawn when each was a tuple built row by row: the oracle
    that keeps mask draws, and so ablated contexts and cache keys, stable."""
    rng = np.random.default_rng(seed)
    masks = [(1,) * n]
    while len(masks) < m:
        bits = (rng.random(n) < keep_prob).astype(int)
        if bits.any():
            masks.append(tuple(int(b) for b in bits))
    return masks


@pytest.mark.parametrize(
    "n, m, keep_prob, seed",
    [(1, 2, 0.5, 0), (2, 200, 0.2, 3), (12, 96, 0.5, 1234), (195, 256, 0.5, 7), (369, 64, 0.3, 11)],
)
def test_sample_masks_match_the_row_loop_oracle(n, m, keep_prob, seed):
    masks = sample_masks(n, m, keep_prob, seed)
    assert masks.dtype == bool
    assert masks.shape == (m, n)
    assert [tuple(row) for row in masks.astype(int).tolist()] == _row_loop_masks(n, m, keep_prob, seed)


class TestAblate:
    def test_all_ones_reproduces_document(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd.", "Ee ff."])
        assert ablate(doc, np.array([1, 1, 1], bool)) == "Aa bb. Cc dd. Ee ff."

    def test_all_zeros_empty(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd."])
        assert ablate(doc, np.array([0, 0], bool)) == ""

    def test_selection(self):
        doc = doc_from_sentences(["A one.", "B two.", "C three."])
        assert ablate(doc, np.array([1, 0, 1], bool)) == "A one. C three."

    def test_transcript_keeps_speaker_prefix(self):
        doc = make_document("t", "Alice: We agreed.\nBob: Fine then.", kind="transcript")
        assert ablate(doc, np.array([1, 1], bool)) == "Alice: We agreed. Bob: Fine then."
        assert ablate(doc, np.array([0, 1], bool)) == "Bob: Fine then."

    def test_length_mismatch(self):
        doc = doc_from_sentences(["Aa."])
        with pytest.raises(ValueError):
            ablate(doc, np.array([1, 0], bool))


class TestLogitScale:
    def test_half_probability_is_zero(self):
        assert logit_scale(math.log(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_probability_closed_form(self):
        assert logit_scale(math.log(0.25)) == pytest.approx(math.log(1.0 / 3.0), abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            logit_scale(0.0)

    def test_positive_rejected(self):
        with pytest.raises(DomainError):
            logit_scale(0.5)

    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError):
            logit_scale(value)

    def test_thousand_random_values_match_high_precision_oracle(self):
        rng = np.random.default_rng(2718)
        mp.mp.dps = 50
        values = -np.exp(rng.uniform(math.log(1e-6), math.log(50.0), size=1000))
        for L in values:
            p = mp.e ** mp.mpf(float(L))
            expected = float(mp.log(p) - mp.log(1 - p))
            got = logit_scale(float(L))
            assert got == pytest.approx(expected, rel=1e-10)


def _random_instance(rng, full_rank=False):
    while True:
        m = int(rng.integers(8, 65))
        n = int(rng.integers(1, 9))
        X = (rng.random((m, n)) < 0.5).astype(float)
        y = rng.normal(size=m)
        if not full_rank:
            return X, y
        augmented = np.column_stack([np.ones(m), X])
        if np.linalg.matrix_rank(augmented) == n + 1:
            return X, y


class TestFitLasso:
    def test_exact_fit(self):
        w, b, r2, *_ = fit_lasso(np.array([[0.0], [1.0], [0.0], [1.0]]), np.array([0.0, 2.0, 0.0, 2.0]), lam=0.0)
        assert w[0] == pytest.approx(2.0, abs=1e-6)
        assert b == pytest.approx(0.0, abs=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_full_shrinkage_at_lambda_max(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0.0, 2.0, 0.0, 2.0])
        lmax = lambda_max(X, y)
        for lam in (lmax, lmax * 1.5, lmax * 10):
            w, b, *_ = fit_lasso(X, y, lam)
            assert np.abs(w).max() == 0.0
            assert b == pytest.approx(float(y.mean()))

    def test_kkt_conditions_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            X, y = _random_instance(rng)
            lam = float(rng.random()) * lambda_max(X, y)
            w, b, *_ = fit_lasso(X, y, lam)
            gradient = -(X.T @ (y - b - X @ w)) / X.shape[0]
            for j in range(X.shape[1]):
                if w[j] == 0.0:
                    assert abs(gradient[j]) <= lam + 1e-6
                else:
                    assert gradient[j] == pytest.approx(-lam * np.sign(w[j]), abs=1e-6)
            assert abs((y - b - X @ w).mean()) <= 1e-6

    def test_lambda_zero_matches_normal_equations(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            X, y = _random_instance(rng, full_rank=True)
            w, b, *_ = fit_lasso(X, y, lam=0.0)
            augmented = np.column_stack([np.ones(X.shape[0]), X])
            theta, *_ = np.linalg.lstsq(augmented, y, rcond=None)
            assert b == pytest.approx(theta[0], abs=1e-8)
            assert np.abs(w - theta[1:]).max() < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        X, y = _random_instance(rng)
        lam = 0.3 * lambda_max(X, y)
        w1, b1, *_ = fit_lasso(X, y, lam)
        c = 3.5
        w2, b2, *_ = fit_lasso(X, c * y, c * lam)
        assert np.abs(w2 - c * w1).max() < 1e-7
        assert b2 == pytest.approx(c * b1, abs=1e-7)

    def test_constant_column_gets_zero_weight(self):
        X = np.column_stack([np.ones(8), (np.arange(8) % 2).astype(float)])
        y = np.arange(8).astype(float)
        w, *_ = fit_lasso(X, y, lam=0.01)
        assert w[0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_lasso(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]), lam=0.0)


@pytest.mark.parametrize("n", [300, 800])
@pytest.mark.parametrize("m", [64, 256])
def test_fit_converges_at_govreport_scale(n, m):
    rng = np.random.default_rng(n + m)
    X = (rng.random((m, n)) < 0.5).astype(float)
    true_w = np.zeros(n)
    true_w[rng.choice(n, 10, replace=False)] = rng.normal(0.0, 2.0, 10)
    y = X @ true_w + rng.normal(0.0, 0.5, m)
    lam = 0.01 * lambda_max(X, y)
    fit = fit_lasso(X, y, lam)
    assert fit.converged
    assert fit.kkt_residual <= 1e-9
    w, b = fit.weights, fit.intercept
    gradient = -(X.T @ (y - b - X @ w)) / m
    for j in range(n):
        if w[j] == 0.0:
            assert abs(gradient[j]) <= lam + 1e-9
        else:
            assert abs(gradient[j] + lam * np.sign(w[j])) <= 1e-9
    # Off the support (|g_j| < lam) the weights are exact zeros, not tiny values.
    off_support = np.abs(gradient) < lam - 1e-9
    assert off_support.sum() >= n - m
    assert (w[off_support] == 0.0).all()


def test_fit_stopped_by_max_iter_reports_not_converged():
    rng = np.random.default_rng(17)
    X = (rng.random((64, 300)) < 0.5).astype(float)
    y = X[:, :5].sum(axis=1) + rng.normal(0.0, 0.1, 64)
    fit = fit_lasso(X, y, 0.01 * lambda_max(X, y), max_iter=1)
    assert fit.iterations == 1
    assert not fit.converged
    assert fit.kkt_residual > 1e-9
    assert np.isfinite(fit.weights).all()


def test_fit_backtracks_from_an_underestimated_step_constant(monkeypatch):
    import higen.attribution as attribution_mod

    rng = np.random.default_rng(23)
    X = (rng.random((64, 40)) < 0.5).astype(float)
    y = X[:, :4] @ np.array([2.0, -1.0, 1.5, 0.5]) + rng.normal(0.0, 0.1, 64)
    lam = 0.01 * lambda_max(X, y)
    reference = fit_lasso(X, y, lam)
    # An estimate far below the gradient's Lipschitz constant makes plain steps diverge.
    monkeypatch.setattr(attribution_mod, "_lipschitz_estimate", lambda centered: 1e-3)
    fit = fit_lasso(X, y, lam)
    assert fit.converged
    assert np.abs(fit.weights - reference.weights).max() < 1e-8


class TestContextciteAttribute:
    def test_single_cause_sentence_recovered(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:6])

        def weight_fn(bits):
            return float(2 * bits[3] - 1)  # only sentence 3 matters

        client = _client_with_scorer(tmp_path, _presence_scorer(doc, weight_fn))
        result = contextcite_attribute(
            client, doc, "response text", "m", AttributionParams(m=32, keep_prob=0.5, lambda_frac=0.01), seed=1
        )
        assert int(np.argmax(result.scores)) == 3
        assert result.scores[3] > 0
        assert result.num_ablations == 32

    def test_mask_independent_scorer_gives_all_zero_weights(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:5])
        client = _client_with_scorer(tmp_path, lambda ctx, cont: -2.0)
        result = contextcite_attribute(
            client, doc, "response", "m", AttributionParams(m=16, lambda_frac=0.01), seed=0
        )
        assert all(s == 0.0 for s in result.scores)

    def test_synthetic_linear_recovery(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        true_w = np.zeros(12)
        true_w[1], true_w[4], true_w[6] = 3.0, 1.0, -2.0
        rng = np.random.default_rng(12345)
        noise_for = {}

        def weight_fn(bits):
            key = tuple(bits)
            if key not in noise_for:
                noise_for[key] = float(rng.normal(0.0, 0.01))
            return float(np.dot(true_w, bits)) + noise_for[key]

        client = _client_with_scorer(tmp_path, _presence_scorer(doc, weight_fn))
        result = contextcite_attribute(
            client, doc, "response", "m", AttributionParams(m=96, keep_prob=0.5, lambda_frac=0.01), seed=0
        )
        recovered = np.array(result.scores)
        corr = np.corrcoef(recovered, true_w)[0, 1]
        assert corr > 0.99
        assert set(np.argsort(-np.abs(recovered))[:3].tolist()) == {1, 4, 6}

    def test_determinism(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:6])
        client = _client_with_scorer(tmp_path, _presence_scorer(doc, lambda bits: float(sum(bits))))
        kwargs = dict(params=AttributionParams(m=16), seed=4)
        a = contextcite_attribute(client, doc, "resp", "m", **kwargs)
        b = contextcite_attribute(client, doc, "resp", "m", **kwargs)
        assert a.scores == b.scores
        assert a.intercept == b.intercept
        assert a.lambda_ == b.lambda_

    def test_scoring_error_annotated_with_mask_index(self, tmp_path):
        from higen.errors import EndpointError

        doc = doc_from_sentences(_SYNTH_SENTENCES[:4])

        def failing(ctx, cont):
            raise EndpointError(418, "teapot")

        client = LLMClient(MockBackend(score_fn=failing), cache_dir=tmp_path / "c")
        with pytest.raises(AttributionError, match="mask 0"):
            contextcite_attribute(client, doc, "resp", "m", AttributionParams(m=8), seed=0)

    def test_batched_scoring_matches_one_context_at_a_time(self, tmp_path, monkeypatch):
        from higen import attribution
        from higen.llm_client import overlap_scorer

        doc = doc_from_sentences(_SYNTH_SENTENCES)
        response = "Bridge banana builds. Garnet guava glints."
        m = 3 * attribution.SCORE_BATCH + 2  # not a multiple of the batch size
        params = AttributionParams(m=m)
        batched_backend = MockBackend(score_fn=overlap_scorer)
        batched = contextcite_attribute(
            LLMClient(batched_backend, cache_dir=tmp_path / "b"), doc, response, "m", params, seed=4
        )
        monkeypatch.setattr(attribution, "SCORE_BATCH", 1)
        single_backend = MockBackend(score_fn=overlap_scorer)
        single = contextcite_attribute(
            LLMClient(single_backend, cache_dir=tmp_path / "s"), doc, response, "m", params, seed=4
        )
        assert batched == single
        assert batched_backend.score_calls == 4  # one request per batch, the last one short
        assert single_backend.score_calls == m
        assert batched_backend.requests == single_backend.requests
        masks = sample_masks(len(doc.sentences), m, params.keep_prob, 4)
        assert [r.context for r in batched_backend.requests] == [prompt_hash(ablate(doc, mask)) for mask in masks]

    def test_scoring_error_names_the_first_mask_of_the_failed_batch(self, tmp_path):
        from higen.attribution import SCORE_BATCH
        from higen.errors import EndpointError

        doc = doc_from_sentences(_SYNTH_SENTENCES)

        def fail_on_third_batch(ctx, cont):
            if backend.score_calls == 3:
                raise EndpointError(500, "down")
            return -1.0

        backend = MockBackend(score_fn=fail_on_third_batch)
        client = LLMClient(backend, cache_dir=tmp_path / "c")
        with pytest.raises(AttributionError, match=f"mask {2 * SCORE_BATCH}:"):
            contextcite_attribute(client, doc, "resp", "m", AttributionParams(m=4 * SCORE_BATCH), seed=0)

    def test_empty_document_rejected(self, tmp_path):
        client = _client_with_scorer(tmp_path, lambda c, k: -1.0)
        with pytest.raises(AttributionError, match="document has no sentences"):
            contextcite_attribute(client, make_document("empty", ""), "resp", "m")

    def test_non_finite_logprob_drops_its_sample_like_probability_one(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:6])
        presence = _presence_scorer(doc, lambda bits: 2.0 * bits[1] - bits[4] + 0.5 * bits[5])

        def dropping(value):
            return lambda ctx, cont: value if _SYNTH_SENTENCES[2] not in ctx else presence(ctx, cont)

        params = AttributionParams(m=32)
        masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, 5)
        kept = int(masks[:, 2].sum())
        assert 6 / 2 + 2 < kept < params.m
        results = [
            contextcite_attribute(_client_with_scorer(tmp_path / str(i), dropping(value)), doc, "resp", "m", params, 5)
            for i, value in enumerate((-math.inf, 0.0))
        ]
        assert results[0] == results[1]
        assert results[0].num_ablations == kept

    def test_a_cache_filled_by_plain_requests_is_fully_hit(self, tmp_path):
        # Transcript sentences with speaker labels, quotes, backslashes, tabs,
        # a line break inside an utterance and non-ASCII text.
        text = (
            'Ann: She said "stop" \\ then\tleft. Fine.\n'
            "Bo\u00e9: Caf\u00e9 \u2028 \u4e2d\u6587 and \U0001f642 done. Next one.\n"
            "Ann: A line\nthat goes on. Backslash \\n is literal.\n"
            'Cy: "Quoted" start. End here!\n'
        )
        doc = make_document("t", text, kind="transcript")
        assert len(doc.sentences) >= 6
        assert any("\t" in s for s in doc.labelled_sentences) and any("\n" in s for s in doc.labelled_sentences)
        response = 'Ann said "stop" \\ Caf\u00e9.'
        params = AttributionParams(m=16)
        masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, 3)
        filler = MockBackend(score_fn=overlap_scorer)
        LLMClient(filler, cache_dir=tmp_path / "c").score_many(
            [ScoreRequest(model="m", context=ablate(doc, mask), continuation=response) for mask in masks]
        )
        assert filler.calls == 1
        cold = contextcite_attribute(
            LLMClient(MockBackend(score_fn=overlap_scorer), cache_dir=tmp_path / "cold"), doc, response, "m", params, 3
        )
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "c")
        warm = contextcite_attribute(client, doc, response, "m", params, seed=3)
        assert backend.calls == 0 and client.backend_calls == 0
        assert client.cache_hits == params.m
        assert warm == cold

    def test_empty_response_rejected(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:3])
        client = _client_with_scorer(tmp_path, lambda c, k: -1.0)
        with pytest.raises(AttributionError, match="response must be non-empty"):
            contextcite_attribute(client, doc, "", "m")


class TestAttributionHighlights:
    def _result(self, scores):
        from higen.attribution import AttributionResult

        return AttributionResult(
            scores=list(scores), intercept=0.0, lambda_=0.1, num_ablations=8, r_squared=0.9, seed=0
        )

    def test_filter_and_reorder(self):
        doc = doc_from_sentences(["S zero.", "S one.", "S two.", "S three."])
        hs = attribution_highlights(self._result([0.5, 0.0, -0.2, 0.9]), doc, k=30)
        assert [h.source_index for h in hs.items] == [0, 3]
        assert hs.method == "contextcite"

    def test_all_zero_scores_empty_set(self):
        doc = doc_from_sentences(["S zero.", "S one."])
        hs = attribution_highlights(self._result([0.0, 0.0]), doc, k=5)
        assert hs.items == ()

    def test_top_k_cap(self):
        doc = doc_from_sentences(["S zero.", "S one."])
        hs = attribution_highlights(self._result([0.5, 0.9]), doc, k=1)
        assert [h.source_index for h in hs.items] == [1]

    def test_never_emits_nonpositive_or_duplicates(self):
        doc = doc_from_sentences(["S zero.", "S one.", "S two."])
        hs = attribution_highlights(self._result([0.1, -0.5, 0.0]), doc, k=10)
        indices = [h.source_index for h in hs.items]
        assert indices == [0]
        assert len(indices) == len(set(indices))
