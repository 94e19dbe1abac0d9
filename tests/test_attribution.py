from __future__ import annotations

import hashlib
import json
import logging
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.attribution import (
    AttributionParams,
    ablate,
    center,
    context_lengths,
    contextcite_attribute,
    fit_lasso,
    fit_plan,
    lambda_max,
    logit_scale,
    logit_scales,
    request_runs,
    sample_masks,
    score_ablations,
)
from higen.corpus import make_document
from higen.errors import AttributionError, DomainError
from higen.llm_client import (
    LLMClient,
    MockBackend,
    overlap_scorer,
    packed_score_key,
    prompt_hash,
)
from higen.prompts import ranked_highlights

from conftest import RecordingBackend, doc_from_sentences, scored_contexts, traced_peak

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


# A budget of about two synthetic-sentence contexts per scoring request.
_SMALL_BUDGET = 300


def _small_budget_runs(monkeypatch, doc, params, seed) -> list[range]:
    """Set the scoring budget to ``_SMALL_BUDGET`` characters and return the
    requests an attribution of ``doc`` then sends on a cold cache, as runs
    of mask indices."""
    from higen import attribution

    monkeypatch.setattr(attribution, "SCORE_REQUEST_CHARS", _SMALL_BUDGET)
    masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, seed)
    runs = request_runs(context_lengths(doc, masks).tolist(), _SMALL_BUDGET)
    # Runs of different sizes, so a request is not found by counting contexts.
    assert len(runs) >= 4 and len({len(run) for run in runs}) > 1
    return runs


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

    @pytest.mark.parametrize("m", [2, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_masks_of_m_are_the_first_rows_of_the_masks_of_2m(self, n, m):
        # A larger m extends the draw with the stream's next non-zero rows and
        # never redraws the first m, all-zero replacements included.
        for seed in range(50):
            assert np.array_equal(
                sample_masks(n, m, keep_prob=0.5, seed=seed), sample_masks(n, 2 * m, keep_prob=0.5, seed=seed)[:m]
            )

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
    [
        (1, 2, 0.5, 0),
        (4, 2, 0.3, 3),
        (3, 2, 0.3, 4),
        (3, 12, 0.3, 3),
        (2, 200, 0.2, 3),
        (12, 96, 0.5, 1234),
        (195, 256, 0.5, 7),
        (369, 64, 0.3, 11),
    ],
)
def test_sample_masks_match_the_row_loop_oracle(n, m, keep_prob, seed):
    masks = sample_masks(n, m, keep_prob, seed)
    assert masks.dtype == bool
    assert masks.shape == (m, n)
    assert [tuple(row) for row in masks.astype(int).tolist()] == _row_loop_masks(n, m, keep_prob, seed)


@pytest.mark.parametrize("n, m, keep_prob, seed, first_zero", [(3, 2, 0.3, 4, 1), (3, 12, 0.3, 3, 5)])
def test_the_oracle_cases_meet_all_zero_draws(n, m, keep_prob, seed, first_zero):
    # The row that the first all-zero draw would have filled: row 1 at m=2,
    # and a row after row 1 among the first m - 1 draws.
    draws = np.random.default_rng(seed).random((m - 1, n)) < keep_prob
    assert 1 + int(np.flatnonzero(~draws.any(axis=1))[0]) == first_zero


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


_WORDS = st.text(alphabet="abqz\u00e9\u00df\u4e2d\U0001f642\"\\\t", min_size=1, max_size=6)


@st.composite
def _documents(draw):
    """Prose, or a transcript whose sentences carry speaker prefixes, with
    non-ASCII text, quotes, backslashes and tabs."""
    sentences = draw(st.lists(st.lists(_WORDS, min_size=1, max_size=5), min_size=1, max_size=10))
    sentences = ["Q" + " ".join(words) + "." for words in sentences]
    if draw(st.booleans()):
        speakers = draw(st.lists(st.sampled_from(["Ann", "Bo\u00e9", "\u674e"]), min_size=len(sentences)))
        text = "\n".join(f"{speaker}: {sentence}" for speaker, sentence in zip(speakers, sentences))
        return make_document("t", text, kind="transcript")
    return make_document("p", " ".join(sentences))


@settings(max_examples=150, deadline=None)
@given(_documents(), st.data(), st.integers(min_value=0, max_value=300))
def test_request_runs_split_the_masks_in_order_within_the_budget(document, data, budget):
    n = len(document.sentences)
    rows = st.lists(st.booleans(), min_size=n, max_size=n)
    masks = np.array(data.draw(st.lists(rows, min_size=1, max_size=20)), dtype=bool)
    lengths = context_lengths(document, masks).tolist()
    assert lengths == [len(ablate(document, mask)) for mask in masks]
    runs = request_runs(lengths, budget)
    assert [index for run in runs for index in run] == list(range(len(masks)))
    assert all(run.step == 1 and len(run) >= 1 for run in runs)
    for run in runs:
        assert sum(lengths[i] for i in run) <= budget or len(run) == 1
    for run in runs[:-1]:
        assert sum(lengths[i] for i in run) + lengths[run.stop] > budget


@pytest.mark.parametrize("budget", [0, 1, 400_000])
def test_no_lengths_make_no_runs(budget):
    # A fully cached attribution has no contexts left, so it sends no request.
    assert request_runs([], budget) == []


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


# Scores on both sides of logit_scale's branch point at -ln 2 and at it,
# tiny and huge negatives, integers, and every kind it rejects.
_SCORES = st.one_of(
    st.floats(min_value=-math.log(2.0), max_value=-math.log(2.0) / 2),
    st.floats(max_value=-math.log(2.0), allow_infinity=False, allow_nan=False),
    st.floats(min_value=-1e-300, max_value=0.0),
    st.sampled_from([-math.log(2.0), math.nextafter(-math.log(2.0), 0.0), math.nextafter(-math.log(2.0), -math.inf)]),
    st.sampled_from([-5e-324, -1e-320, -1.7976931348623157e308, 0.0, -0.0]),
    st.integers(min_value=-10**6, max_value=1),
    st.floats(),
)


def _logit_or_none(score: float) -> float | None:
    try:
        return logit_scale(score)
    except DomainError:
        return None


class TestLogitScales:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SCORES, max_size=40))
    def test_equal_logit_scale_bit_for_bit_and_mark_every_rejected_score(self, scores):
        expected = [_logit_or_none(score) for score in scores]
        logits, usable = logit_scales(scores)
        assert usable.dtype == bool and usable.tolist() == [logit is not None for logit in expected]
        assert logits.dtype == float
        assert logits.tobytes() == np.array([logit for logit in expected if logit is not None], dtype=float).tobytes()

    def test_both_branches_are_taken(self):
        scores = [-1e-9, -0.5, -math.log(2.0), -0.7, -3.0, -1234, 0, 0.5, math.nan, -math.inf]
        logits, usable = logit_scales(scores)
        assert usable.tolist() == [True] * 6 + [False] * 4
        assert logits.tolist() == [logit_scale(score) for score in scores[:6]]

    def test_no_scores(self):
        logits, usable = logit_scales([])
        assert logits.shape == usable.shape == (0,)


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


def test_fit_backtracks_from_an_underestimated_step_constant():
    # 40 near-copies of one Bernoulli column: the centered Gram matrix is
    # nearly rank one, so its largest eigenvalue, the gradient's Lipschitz
    # constant, is about n times the largest diagonal entry L starts at, and
    # plain steps from that start diverge.
    rng = np.random.default_rng(23)
    base = rng.random(64) < 0.5
    X = (base[:, None] ^ (rng.random((64, 40)) < 0.05)).astype(float)
    y = X[:, :4] @ np.array([2.0, -1.0, 1.5, 0.5]) + rng.normal(0.0, 0.1, 64)
    centered = X - X.mean(axis=0)
    gram = centered.T @ centered / 64
    assert np.linalg.eigvalsh(gram)[-1] > 20 * gram.diagonal().max()
    lam = 0.01 * lambda_max(X, y)
    fit = fit_lasso(X, y, lam)
    assert fit.converged
    w, b = fit.weights, fit.intercept
    gradient = -(X.T @ (y - b - X @ w)) / 64
    violation = np.where(w == 0.0, np.maximum(np.abs(gradient) - lam, 0.0), np.abs(gradient + lam * np.sign(w)))
    assert violation.max() <= 1e-11


def _kkt_violation(X, y, lam, fit) -> float:
    """The largest KKT violation of ``fit``, on raw X with its intercept."""
    w, b = fit.weights, fit.intercept
    gradient = -(X.T @ (y - b - X @ w)) / X.shape[0]
    violation = np.where(w == 0.0, np.maximum(np.abs(gradient) - lam, 0.0), np.abs(gradient + lam * np.sign(w)))
    return float(violation.max())


def _wide_problem() -> tuple[np.ndarray, np.ndarray, float]:
    """The 64 x 300 problem of the max_iter test, with its lambda."""
    rng = np.random.default_rng(17)
    X = (rng.random((64, 300)) < 0.5).astype(float)
    y = X[:, :5].sum(axis=1) + rng.normal(0.0, 0.1, 64)
    return X, y, 0.01 * lambda_max(X, y)


def _tall_problem() -> tuple[np.ndarray, np.ndarray, float]:
    """A full-rank 200 x 40 problem (m > n), whose solution is unique, with its lambda."""
    rng = np.random.default_rng(29)
    X = (rng.random((200, 40)) < 0.5).astype(float)
    assert np.linalg.matrix_rank(np.column_stack([np.ones(200), X])) == 41
    y = X[:, :6] @ rng.normal(0.0, 2.0, 6) + rng.normal(0.0, 0.5, 200)
    return X, y, 0.01 * lambda_max(X, y)


class TestFitLassoStart:
    @pytest.mark.parametrize("problem", [_wide_problem, _tall_problem], ids=["m_below_n", "m_above_n"])
    @pytest.mark.parametrize("max_iter", [0, 10_000])
    def test_a_cold_fits_weights_are_certified_bit_for_bit_with_no_iteration(self, problem, max_iter):
        X, y, lam = problem()
        cold = fit_lasso(X, y, lam)
        assert cold.converged and cold.iterations > 0
        # A start as the cache holds it: a list of Python floats.
        for start in (cold.weights, cold.weights.tolist()):
            warm = fit_lasso(X, y, lam, start=start, max_iter=max_iter)
            assert warm.weights.tobytes() == cold.weights.tobytes()
            assert (warm.intercept, warm.r_squared, warm.kkt_residual) == (
                cold.intercept,
                cold.r_squared,
                cold.kkt_residual,
            )
            assert warm.iterations == 0 and warm.converged

    @pytest.mark.parametrize("problem", [_wide_problem, _tall_problem], ids=["m_below_n", "m_above_n"])
    @pytest.mark.parametrize("start", ["another_lambda", "random"])
    def test_a_start_that_is_not_optimal_still_meets_tol(self, problem, start):
        X, y, lam = problem()
        n = X.shape[1]
        if start == "another_lambda":
            start = fit_lasso(X, y, 30 * lam).weights
        else:
            start = np.random.default_rng(3).normal(0.0, 1.0, n)
        fit = fit_lasso(X, y, lam, start=start)
        assert fit.converged and fit.iterations > 0
        assert _kkt_violation(X, y, lam, fit) <= 1e-11
        if problem is _tall_problem:
            reference = fit_lasso(X, y, lam)
            assert np.abs(fit.weights - reference.weights).max() < 1e-8
            assert fit.intercept == pytest.approx(reference.intercept, abs=1e-8)

    def test_max_iter_zero_at_a_start_that_is_not_optimal_reports_not_converged(self):
        X, y, lam = _tall_problem()
        start = fit_lasso(X, y, 30 * lam).weights
        fit = fit_lasso(X, y, lam, start=start, max_iter=0)
        assert fit.iterations == 0
        assert not fit.converged
        assert fit.kkt_residual > 1e-11
        assert fit.weights.tobytes() == start.tobytes()
        assert fit.intercept == pytest.approx(float(y.mean() - X.mean(axis=0) @ start), abs=1e-12)
        residual = y - fit.intercept - X @ start
        assert fit.r_squared == pytest.approx(1.0 - residual @ residual / ((y - y.mean()) @ (y - y.mean())))

    def test_a_start_on_a_constant_column_is_zeroed(self):
        X = np.column_stack([np.ones(8), (np.arange(8) % 2).astype(float)])
        y = np.arange(8).astype(float)
        cold = fit_lasso(X, y, lam=0.01)
        fit = fit_lasso(X, y, lam=0.01, start=[5.0, cold.weights[1]], max_iter=0)
        assert fit.converged and fit.weights[0] == 0.0
        assert fit.weights.tobytes() == cold.weights.tobytes() and fit.intercept == cold.intercept

    @pytest.mark.parametrize(
        "start",
        [np.zeros(39), np.zeros(41), np.zeros((40, 1)), np.full(40, np.nan), np.r_[np.zeros(39), np.inf]],
        ids=["short", "long", "a_column", "nan", "inf"],
    )
    def test_a_start_of_the_wrong_shape_or_not_finite_is_a_value_error(self, start):
        X, y, lam = _tall_problem()
        with pytest.raises(ValueError, match="start must hold n finite weights"):
            fit_lasso(X, y, lam, start=start)


def _mask_problem() -> tuple[np.ndarray, np.ndarray]:
    """A boolean 256 x 400 mask array and targets linear in a few of its bits."""
    masks = sample_masks(400, 256, 0.5, seed=41)
    rng = np.random.default_rng(41)
    y = masks[:, :6] @ rng.normal(0.0, 2.0, 6) + rng.normal(0.0, 0.5, 256)
    return masks, y


@pytest.mark.parametrize("problem", [_mask_problem, _wide_problem], ids=["boolean_masks", "floats"])
def test_lambda_max_and_fit_lasso_of_the_centered_copy_equal_those_of_x(problem):
    X, y, *_ = problem()
    before = np.array(X, copy=True)
    centered = center(X)
    lam = lambda_max(centered, y)
    assert lam == lambda_max(X, y)
    for start, max_iter in [(None, 10_000), (fit_lasso(X, y, 0.01 * lam).weights, 0)]:
        shared = fit_lasso(centered, y, 0.01 * lam, start=start, max_iter=max_iter)
        plain = fit_lasso(X, y, 0.01 * lam, start=start, max_iter=max_iter)
        assert shared.weights.tobytes() == plain.weights.tobytes() and shared[1:] == plain[1:]
    assert (np.asarray(X) == before).all()
    assert centered.X.tobytes() == center(X).X.tobytes()  # no fit wrote into the shared copy


def test_lambda_max_and_fit_lasso_hold_one_float_copy_of_a_boolean_mask():
    masks, y = _mask_problem()
    floats = masks.astype(float)
    one_copy = floats.nbytes
    masks_before, floats_before = masks.copy(), floats.copy()

    lam, peak = traced_peak(lambda_max, masks, y)
    assert peak <= 1.5 * one_copy
    assert lam == lambda_max(floats, y)

    fit, peak = traced_peak(fit_lasso, masks, y, 0.01 * lam)
    assert peak <= 1.5 * one_copy
    reference = fit_lasso(floats, y, 0.01 * lam)
    assert fit.weights.tobytes() == reference.weights.tobytes()
    assert fit[1:] == reference[1:]

    assert (masks == masks_before).all() and (floats == floats_before).all()


def _plan_problem() -> tuple[np.ndarray, np.ndarray]:
    """A boolean 48 x 30 mask array and logits linear in a few of its bits."""
    masks = sample_masks(30, 48, 0.5, seed=7)
    rng = np.random.default_rng(7)
    return masks, masks[:, :4] @ rng.normal(0.0, 2.0, 4) + rng.normal(0.0, 0.3, 48)


class TestFitPlan:
    """``fit_plan`` is pure: none of these tests builds a client."""

    def _cold(self):
        rows, y = _plan_problem()
        return fit_lasso(rows, y, 0.01 * lambda_max(rows, y))

    @staticmethod
    def _same(fit, reference):
        assert fit.weights.tobytes() == reference.weights.tobytes() and fit[1:] == reference[1:]

    def test_a_cold_call_is_fit_lasso_at_lambda_frac_of_lambda_max(self):
        rows, y = _plan_problem()
        fit, lam, certified = fit_plan(rows, y, 0.01)
        assert lam == 0.01 * lambda_max(rows, y) and not certified
        self._same(fit, self._cold())
        assert fit.iterations > 0 and fit.converged

    @pytest.mark.parametrize("as_cached", [lambda w: w, lambda w: w.tolist()], ids=["array", "list"])
    def test_the_cold_fits_own_weights_are_certified_with_no_iteration(self, as_cached):
        rows, y = _plan_problem()
        cold = self._cold()
        fit, lam, certified = fit_plan(rows, y, 0.01, as_cached(cold.weights))
        assert certified and fit.iterations == 0 and fit.converged
        assert fit.weights.tobytes() == cold.weights.tobytes()
        assert (fit.intercept, fit.r_squared) == (cold.intercept, cold.r_squared)

    @pytest.mark.parametrize(
        "weights",
        [lambda w: w + 0.25, lambda w: np.zeros_like(w), lambda w: fit_plan(*_plan_problem(), 0.3)[0].weights],
        ids=["shifted", "zeros", "another_lambda_frac"],
    )
    def test_weights_that_are_not_optimal_give_the_cold_fit(self, weights):
        rows, y = _plan_problem()
        cold = self._cold()
        fit, lam, certified = fit_plan(rows, y, 0.01, weights(cold.weights))
        assert not certified
        self._same(fit, cold)
        assert lam == 0.01 * lambda_max(rows, y)

    def test_rows_and_logits_are_left_as_they_are(self):
        rows, y = _plan_problem()
        before = rows.copy(), y.copy()
        fit_plan(rows, y, 0.01, self._cold().weights)
        assert rows.dtype == bool and (rows == before[0]).all() and y.tobytes() == before[1].tobytes()


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

        doc = doc_from_sentences(_SYNTH_SENTENCES)
        response = "Bridge banana builds. Garnet guava glints."
        m = 14
        params = AttributionParams(m=m)
        masks = sample_masks(len(doc.sentences), m, params.keep_prob, 4)

        def attribute(name, budget):
            monkeypatch.setattr(attribution, "SCORE_REQUEST_CHARS", budget)
            backend = RecordingBackend()
            result = contextcite_attribute(
                LLMClient(backend, cache_dir=tmp_path / name), doc, response, "m", params, seed=4
            )
            assert result.scoring_requests == backend.score_calls
            return result, backend

        packed, packed_backend = attribute("packed", attribution.SCORE_REQUEST_CHARS)
        small, small_backend = attribute("small", _SMALL_BUDGET)
        single, single_backend = attribute("single", 1)
        assert packed == small == single
        assert packed_backend.score_calls == 1  # 14 short contexts fit in one request
        runs = request_runs(context_lengths(doc, masks).tolist(), _SMALL_BUDGET)
        assert small_backend.score_calls == len(runs) > 2
        assert single_backend.score_calls == m  # every context is longer than one character
        backends = (packed_backend, small_backend, single_backend)
        assert {batch[:2] for backend in backends for batch in backend.requests} == {("m", response)}
        contexts = [prompt_hash(ablate(doc, mask)) for mask in masks]
        assert [scored_contexts(backend) for backend in backends] == [contexts] * 3

    def test_scoring_error_names_the_first_mask_of_the_failed_batch(self, tmp_path, monkeypatch):
        from higen.errors import EndpointError

        doc = doc_from_sentences(_SYNTH_SENTENCES)
        params = AttributionParams(m=16)
        runs = _small_budget_runs(monkeypatch, doc, params, 0)

        def fail_on_third_request(ctx, cont):
            if backend.score_calls == 3:
                raise EndpointError(500, "down")
            return -1.0

        backend = MockBackend(score_fn=fail_on_third_request)
        client = LLMClient(backend, cache_dir=tmp_path / "c")
        with pytest.raises(AttributionError, match=f"mask {runs[2].start}:"):
            contextcite_attribute(client, doc, "resp", "m", params, seed=0)
        assert backend.score_calls == 3

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

    def test_an_entry_of_transcript_sentences_is_fully_hit(self, tmp_path):
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
        cold = contextcite_attribute(_client_with_scorer(tmp_path, overlap_scorer), doc, response, "m", params, 3)
        path = _packed_entry(tmp_path / "cache", doc, response, "m", params, 3)
        assert list((tmp_path / "cache").glob("*.json")) == [path] and cold.scoring_requests == 1
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        warm = contextcite_attribute(client, doc, response, "m", params, seed=3)
        assert backend.calls == 0 and client.backend_calls == 0
        assert client.cache_hits == params.m
        assert warm == cold

    @pytest.mark.parametrize("n", [11, 12])
    def test_too_few_masks_fail_before_any_work(self, tmp_path, monkeypatch, n):
        from higen import attribution

        def must_not_run(*args, **kwargs):
            raise AssertionError("ruled-out fit did work")

        monkeypatch.setattr(attribution, "sample_masks", must_not_run)
        monkeypatch.setattr(attribution, "ablate", must_not_run)
        monkeypatch.setattr(LLMClient, "_cache_read", must_not_run)
        doc = doc_from_sentences(_SYNTH_SENTENCES[:n])
        backend = MockBackend(score_fn=lambda c, k: -1.0)
        client = LLMClient(backend, cache_dir=tmp_path / "c")
        with pytest.raises(AttributionError, match="7 ablation samples for .* sentences; need at least 8 usable"):
            contextcite_attribute(client, doc, "resp", "m", AttributionParams(m=7))
        assert backend.calls == 0 and client.backend_calls == 0
        assert list((tmp_path / "c").iterdir()) == []

    @pytest.mark.parametrize("n", [11, 12])
    def test_exactly_the_floor_of_usable_samples_fits(self, tmp_path, n):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:n])
        score = _presence_scorer(doc, lambda bits: 2.0 * bits[1] - bits[4])
        result = contextcite_attribute(_client_with_scorer(tmp_path, score), doc, "resp", "m", AttributionParams(m=8))
        assert result.num_ablations == 8
        assert len(result.scores) == n

    def test_dropped_samples_below_the_floor_fail_after_scoring(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        presence = _presence_scorer(doc, lambda bits: 2.0 * bits[1] - bits[4])
        params = AttributionParams(m=16)
        masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, 0)
        kept = int(masks[:, 2].sum())
        assert kept < 8  # 12 sentences need 8 usable samples

        def drop_without_third(ctx, cont):  # probability 1: DomainError in logit_scale
            return presence(ctx, cont) if _SYNTH_SENTENCES[2] in ctx else 0.0

        backend = MockBackend(score_fn=drop_without_third)
        client = LLMClient(backend, cache_dir=tmp_path / "c")
        with pytest.raises(AttributionError, match=f"only {kept} of 16 ablation samples usable; need at least 8"):
            contextcite_attribute(client, doc, "resp", "m", params, seed=0)
        assert backend.score_calls == 1  # all 16 contexts were scored, in one request
        assert len(list((tmp_path / "c").glob("*.json"))) == 1  # cached as one entry

    def test_warm_rerun_builds_no_ablated_context(self, tmp_path, monkeypatch):
        from higen import attribution

        built = []
        plain_ablate = attribution.ablate

        def counting_ablate(document, mask):
            built.append(1)
            return plain_ablate(document, mask)

        monkeypatch.setattr(attribution, "ablate", counting_ablate)
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        response = "Bridge banana builds. Garnet guava glints."
        params = AttributionParams(m=16)
        cold = contextcite_attribute(_client_with_scorer(tmp_path, overlap_scorer), doc, response, "m", params, 2)
        assert len(built) == params.m
        built.clear()
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        warm = contextcite_attribute(client, doc, response, "m", params, seed=2)
        assert built == []
        assert backend.calls == 0 and client.cache_hits == params.m
        assert warm == cold

    def test_empty_response_rejected(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES[:3])
        client = _client_with_scorer(tmp_path, lambda c, k: -1.0)
        with pytest.raises(AttributionError, match="response must be non-empty"):
            contextcite_attribute(client, doc, "", "m")


def _packed_entry(cache_dir, doc, response, model, params, seed) -> Path:
    """The path of the packed score entry of one attribution."""
    masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, seed)
    return cache_dir / f"{packed_score_key(model, response, doc.labelled_sentences, masks)}.json"


def _edited_response(edit):
    """A damage that applies ``edit`` to the response of a cache entry's bytes."""

    def damage(good: bytes) -> bytes:
        entry = json.loads(good)
        edit(entry["response"])
        return json.dumps(entry).encode("utf-8")

    return damage


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of ``owner.name``, which still runs."""
    calls = []
    plain = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _cache_state(cache_dir) -> dict:
    """Each cache file's name, inode, mtime and bytes: an atomic rewrite
    renames a new inode over the entry."""
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes()) for path in cache_dir.iterdir()}


def _forbid(monkeypatch, owner, name):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(owner, name, must_not_run)


class TestPackedScoreEntry:
    _RESPONSE = "Bridge banana builds. Garnet guava glints."
    _PARAMS = AttributionParams(m=16)

    def _cold(self, tmp_path, doc=None, scorer=overlap_scorer, **kwargs):
        doc = doc or doc_from_sentences(_SYNTH_SENTENCES)
        client = _client_with_scorer(tmp_path, scorer)
        return contextcite_attribute(client, doc, self._RESPONSE, "m", self._PARAMS, seed=2, **kwargs)

    def _warm(self, tmp_path, doc=None, **kwargs):
        doc = doc or doc_from_sentences(_SYNTH_SENTENCES)
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        result = contextcite_attribute(client, doc, self._RESPONSE, "m", self._PARAMS, seed=2, **kwargs)
        assert backend.calls == 0 and client.backend_calls == 0
        assert client.cache_hits == self._PARAMS.m
        return result

    def _path(self, tmp_path, doc=None) -> Path:
        doc = doc or doc_from_sentences(_SYNTH_SENTENCES)
        return _packed_entry(tmp_path / "cache", doc, self._RESPONSE, "m", self._PARAMS, 2)

    def _scores(self, stop: int) -> list[float]:
        """``overlap_scorer``'s scores of the first ``stop`` ablated contexts."""
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        return [overlap_scorer(ablate(doc, mask), self._RESPONSE) for mask in masks[:stop]]

    # Recorded before ``score_ablations`` and ``fit_plan`` split the
    # attribution, from ``_cold`` and ``_warm`` of the synthetic document: the
    # packed entry's key, the sha256 of its bytes after a cold call (which a
    # warm one leaves as they are) and both DEBUG lines.
    _KEY = "e1e6af33272e5e67bfdf8cde182c455ad967f2e609752148d94fbdf427645aff"
    _ENTRY_SHA256 = "12ab44d1d0cb79285b1fa6d8084f0f40ead0b04181212fd55586daf139076a16"
    _DEBUG_LINES = [
        "attribution of doc: n=12, 16/16 samples usable, lambda=0.00149107, r2=0.998879, 97 iterations,"
        " converged=True, 1 scoring requests, the largest of 2179 context characters, 0/16 scores cached,"
        " weights from a fit from zero",
        "attribution of doc: n=12, 16/16 samples usable, lambda=0.00149107, r2=0.998879, 0 iterations,"
        " converged=True, 0 scoring requests, the largest of 0 context characters, 16/16 scores cached,"
        " weights from a certified cached solution",
    ]

    def test_the_key_the_entry_bytes_and_the_debug_lines_are_pinned(self, tmp_path, caplog):
        path = self._path(tmp_path)
        assert path.stem == self._KEY
        with caplog.at_level(logging.DEBUG, logger="higen.attribution"):
            self._cold(tmp_path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self._ENTRY_SHA256
            self._warm(tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self._ENTRY_SHA256
        assert [record.getMessage() for record in caplog.records] == self._DEBUG_LINES

    def test_score_ablations_reads_the_entry_and_sends_only_what_it_lacks(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        client = _client_with_scorer(tmp_path / "scores_only", overlap_scorer)
        cold = score_ablations(client, doc, self._RESPONSE, "m", self._PARAMS, 2)
        assert (cold.masks == masks).all() and cold.key == self._KEY
        assert cold.scores == self._scores(self._PARAMS.m) and cold.cached_weights is None
        assert cold.cached == 0 and cold.sent == [int(context_lengths(doc, masks).sum())]
        # The entry of a finished attribution holds the weights beside the scores.
        fit = self._cold(tmp_path)
        backend = MockBackend(score_fn=overlap_scorer)
        warm = score_ablations(LLMClient(backend, cache_dir=tmp_path / "cache"), doc, self._RESPONSE, "m", self._PARAMS, 2)
        assert backend.calls == 0
        assert (warm.key, warm.scores, warm.cached_weights) == (cold.key, cold.scores, fit.scores)
        assert warm.cached == self._PARAMS.m and warm.sent == []

    def test_a_cold_run_writes_one_entry_and_a_warm_one_reads_one(self, tmp_path, monkeypatch):
        from higen import attribution

        runs = _small_budget_runs(monkeypatch, doc_from_sentences(_SYNTH_SENTENCES), self._PARAMS, 2)
        cold = self._cold(tmp_path)
        assert cold.scoring_requests == len(runs)
        assert list((tmp_path / "cache").glob("*.json")) == [self._path(tmp_path)]
        reads = _count_calls(monkeypatch, LLMClient, "_cache_read")
        _forbid(monkeypatch, LLMClient, "score_batch")
        _forbid(monkeypatch, attribution, "ablate")
        assert self._warm(tmp_path) == cold
        assert len(reads) == 1
        assert list((tmp_path / "cache").glob("*.json")) == [self._path(tmp_path)]

    def test_after_each_request_the_entry_holds_exactly_the_scores_so_far(self, tmp_path, monkeypatch):
        runs = _small_budget_runs(monkeypatch, doc_from_sentences(_SYNTH_SENTENCES), self._PARAMS, 2)
        path = self._path(tmp_path)
        held = []
        plain_batch = LLMClient.score_batch

        def score_batch(client, *args):
            held.append(json.loads(path.read_text(encoding="utf-8"))["response"] if path.exists() else None)
            return plain_batch(client, *args)

        monkeypatch.setattr(LLMClient, "score_batch", score_batch)
        cold = self._cold(tmp_path)
        # Before request i is sent, the entry holds the scores of requests 0..i-1.
        assert held == [None] + [{"total_logprob": self._scores(run.stop)} for run in runs[:-1]]
        final = json.loads(path.read_text(encoding="utf-8"))["response"]
        assert final == {"total_logprob": self._scores(self._PARAMS.m), "weights": cold.scores}

    def test_an_entry_written_as_before_the_growing_entry_hits_with_no_backend_call(self, tmp_path, monkeypatch):
        # The bytes every earlier version wrote for a finished attribution:
        # m scores and the converged fit's weights, in one entry.
        fresh = self._cold(tmp_path / "fresh")
        path = self._path(tmp_path)
        path.parent.mkdir()
        entry = {
            "request": {"kind": "packed_score", "key": path.stem},
            "response": {"total_logprob": self._scores(self._PARAMS.m), "weights": fresh.scores},
        }
        path.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
        assert path.read_bytes() == self._path(tmp_path / "fresh").read_bytes()
        before = _cache_state(tmp_path / "cache")
        _forbid(monkeypatch, LLMClient, "score_batch")
        warm = self._warm(tmp_path)
        assert warm == fresh and warm.iterations == 0 and warm.scoring_requests == 0
        assert _cache_state(tmp_path / "cache") == before

    def test_a_warm_rerun_certifies_the_cached_weights_and_opens_one_file(self, tmp_path, monkeypatch):
        from higen import attribution

        cold = self._cold(tmp_path)
        assert cold.converged and cold.iterations > 0
        path = self._path(tmp_path)
        cached = json.loads(path.read_text(encoding="utf-8"))["response"]
        assert set(cached) == {"total_logprob", "weights"}
        assert len(cached["total_logprob"]) == self._PARAMS.m
        assert cached["weights"] == cold.scores
        before = _cache_state(tmp_path / "cache")
        opened = _count_calls(monkeypatch, Path, "read_bytes")
        fits = _count_calls(monkeypatch, attribution, "fit_lasso")
        warm = self._warm(tmp_path)
        assert [str(args[0]) for args in opened] == [str(path)]
        assert len(fits) == 1
        assert warm.iterations == 0 and warm.converged
        assert warm == cold and warm.kkt_residual == cold.kkt_residual
        assert _cache_state(tmp_path / "cache") == before

    @pytest.mark.parametrize("weights", ["cached", "not_optimal"])
    def test_a_warm_rerun_centers_one_copy_and_sizes_no_request(self, tmp_path, monkeypatch, weights):
        from higen import attribution

        cold = self._cold(tmp_path)
        if weights == "not_optimal":
            path = self._path(tmp_path)
            path.write_bytes(_edited_response(lambda response: response["weights"].__setitem__(0, 9.0))(path.read_bytes()))
        centers = _count_calls(monkeypatch, attribution, "center")
        _forbid(monkeypatch, attribution, "context_lengths")
        warm = self._warm(tmp_path)
        assert len(centers) == 1
        assert warm == cold and warm.iterations == (0 if weights == "cached" else cold.iterations)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda response: response.pop("weights"),
            lambda response: response["weights"].pop(),
            lambda response: response["weights"].append(0.0),
            lambda response: response["weights"].__setitem__(0, True),
            lambda response: response["weights"].__setitem__(0, "0.5"),
            lambda response: response["weights"].__setitem__(0, math.nan),
            lambda response: response["weights"].__setitem__(0, math.inf),
            lambda response: response["weights"].__setitem__(0, 10**400),
            lambda response: response.__setitem__("weights", {"0": 0.5}),
            lambda response: response.__setitem__("weights", [weight + 0.25 for weight in response["weights"]]),
        ],
        ids=["absent", "short", "long", "a_bool", "a_string", "nan", "inf", "an_integer_past_float", "not_a_list", "not_optimal"],
    )
    def test_an_entry_without_usable_weights_hits_fits_from_zero_and_is_not_rewritten(
        self, tmp_path, monkeypatch, edit
    ):
        cold = self._cold(tmp_path)
        path = self._path(tmp_path)
        path.write_bytes(_edited_response(edit)(path.read_bytes()))
        before = _cache_state(tmp_path / "cache")
        _forbid(monkeypatch, LLMClient, "score_batch")
        warm = self._warm(tmp_path)
        assert warm == cold
        assert warm.iterations == cold.iterations > 0
        assert _cache_state(tmp_path / "cache") == before

    def test_a_changed_lambda_frac_refits_from_zero_and_leaves_the_entry(self, tmp_path, monkeypatch):
        cold = self._cold(tmp_path)
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        before = _cache_state(tmp_path / "cache")
        changed = AttributionParams(m=self._PARAMS.m, lambda_frac=0.05)
        fresh = contextcite_attribute(
            _client_with_scorer(tmp_path / "fresh", overlap_scorer), doc, self._RESPONSE, "m", changed, seed=2
        )
        _forbid(monkeypatch, LLMClient, "score_batch")
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        refit = contextcite_attribute(client, doc, self._RESPONSE, "m", changed, seed=2)
        assert backend.calls == 0 and client.cache_hits == self._PARAMS.m
        assert refit == fresh and refit != cold
        assert refit.iterations == fresh.iterations > 0
        assert _cache_state(tmp_path / "cache") == before
        assert self._warm(tmp_path).iterations == 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda good: good[: len(good) // 2],
            _edited_response(lambda response: response["total_logprob"].append(-1.5)),
            _edited_response(lambda response: response["total_logprob"].__setitem__(0, "-1.5")),
            _edited_response(lambda response: response["total_logprob"].__setitem__(0, False)),
            _edited_response(lambda response: response.__setitem__("total_logprob", -1.5)),
            _edited_response(lambda response: response.pop("total_logprob")),
            _edited_response(lambda response: response["total_logprob"].__setitem__(3, 10**400)),
        ],
        ids=[
            "truncated",
            "a_logprob_too_many",
            "a_string_logprob",
            "a_bool_logprob",
            "not_a_list",
            "absent",
            "an_integer_past_float",
        ],
    )
    def test_a_damaged_entry_is_scored_again_and_rewritten(self, tmp_path, damage):
        cold = self._cold(tmp_path)
        path = self._path(tmp_path)
        good = path.read_bytes()
        path.write_bytes(damage(good))
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        rescored = contextcite_attribute(
            client, doc_from_sentences(_SYNTH_SENTENCES), self._RESPONSE, "m", self._PARAMS, seed=2
        )
        assert rescored == cold and rescored.scoring_requests == backend.score_calls == cold.scoring_requests
        assert client.cache_hits == 0
        assert path.read_bytes() == good
        assert self._warm(tmp_path) == cold

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=3),
            dict(params=AttributionParams(m=17)),
            dict(params=AttributionParams(m=16, keep_prob=0.6)),
            dict(response="Bridge banana builds."),
            dict(model="another-model"),
            dict(doc=doc_from_sentences(_SYNTH_SENTENCES[:5] + ["Forest feijoa floods."] + _SYNTH_SENTENCES[6:])),
        ],
        ids=["seed", "m", "keep_prob", "response", "model", "one_edited_sentence"],
    )
    def test_a_changed_input_misses(self, tmp_path, change):
        self._cold(tmp_path)
        run = dict(
            doc=doc_from_sentences(_SYNTH_SENTENCES), response=self._RESPONSE, model="m", params=self._PARAMS, seed=2
        )
        run.update(change)
        backend = MockBackend(score_fn=overlap_scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        contextcite_attribute(client, run["doc"], run["response"], run["model"], run["params"], seed=run["seed"])
        assert backend.score_calls == 1 and client.cache_hits == 0
        assert _packed_entry(tmp_path / "cache", **run).exists()
        assert len(list((tmp_path / "cache").glob("*.json"))) == 2

    @pytest.mark.parametrize("value", [0.0, -math.inf])
    def test_a_packed_logprob_without_a_logit_drops_the_same_sample(self, tmp_path, monkeypatch, value):
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        kept = int(masks[:, 2].sum())
        assert 12 / 2 + 2 <= kept < self._PARAMS.m

        def dropping(ctx, cont):
            return overlap_scorer(ctx, cont) if _SYNTH_SENTENCES[2] in ctx else value

        cold = self._cold(tmp_path, scorer=dropping)
        path = self._path(tmp_path)
        logprobs = json.loads(path.read_text())["response"]["total_logprob"]
        assert sum(logprob == value for logprob in logprobs) == self._PARAMS.m - kept
        client = _client_with_scorer(tmp_path, dropping)
        _forbid(monkeypatch, LLMClient, "score_batch")
        packed = contextcite_attribute(client, doc, self._RESPONSE, "m", self._PARAMS, seed=2)
        assert packed == cold and packed.num_ablations == kept
        assert client.backend_calls == 0

    @pytest.mark.parametrize("failed", [0, 2, -1], ids=["first", "third", "last"])
    def test_a_scoring_failure_keeps_the_scores_so_far_and_a_healed_rerun_sends_only_the_rest(
        self, tmp_path, monkeypatch, failed
    ):
        from higen.errors import EndpointError

        doc = doc_from_sentences(_SYNTH_SENTENCES)
        runs = _small_budget_runs(monkeypatch, doc, self._PARAMS, 2)
        failed %= len(runs)
        start = runs[failed].start

        def fail_on_one_request(ctx, cont):
            if broken.score_calls == failed + 1:
                raise EndpointError(500, "down")
            return overlap_scorer(ctx, cont)

        broken = MockBackend(score_fn=fail_on_one_request)
        with pytest.raises(AttributionError, match=f"mask {start}:"):
            contextcite_attribute(
                LLMClient(broken, cache_dir=tmp_path / "cache"), doc, self._RESPONSE, "m", self._PARAMS, seed=2
            )
        # The scores of the requests sent before the failed one, and no weights.
        path = self._path(tmp_path)
        if failed:
            assert json.loads(path.read_text(encoding="utf-8"))["response"] == {"total_logprob": self._scores(start)}
        assert path.exists() == bool(failed) and len(list((tmp_path / "cache").glob("*.json"))) == path.exists()
        healed = RecordingBackend(score_fn=overlap_scorer)
        client = LLMClient(healed, cache_dir=tmp_path / "cache")
        resumed = contextcite_attribute(client, doc, self._RESPONSE, "m", self._PARAMS, seed=2)
        assert healed.score_calls == resumed.scoring_requests == len(runs) - failed
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        assert scored_contexts(healed) == [prompt_hash(ablate(doc, mask)) for mask in masks[start:]]
        assert client.cache_hits == start
        assert list((tmp_path / "cache").glob("*.json")) == [path]
        assert resumed == self._cold(tmp_path / "fresh")

    @pytest.mark.parametrize("budget", [1, 10**9], ids=["one_context_a_request", "one_request"])
    def test_a_run_cut_short_resends_none_of_its_requests_under_a_changed_budget(self, tmp_path, monkeypatch, budget):
        from higen import attribution
        from higen.errors import EndpointError

        doc = doc_from_sentences(_SYNTH_SENTENCES)
        runs = _small_budget_runs(monkeypatch, doc, self._PARAMS, 2)
        cut = 2
        start = runs[cut].start

        def cut_short(ctx, cont):
            if broken.score_calls > cut:
                raise EndpointError(500, "down")
            return overlap_scorer(ctx, cont)

        broken = MockBackend(score_fn=cut_short)
        with pytest.raises(AttributionError):
            contextcite_attribute(
                LLMClient(broken, cache_dir=tmp_path / "cache"), doc, self._RESPONSE, "m", self._PARAMS, seed=2
            )
        monkeypatch.setattr(attribution, "SCORE_REQUEST_CHARS", budget)
        healed = RecordingBackend(score_fn=overlap_scorer)
        client = LLMClient(healed, cache_dir=tmp_path / "cache")
        resumed = contextcite_attribute(client, doc, self._RESPONSE, "m", self._PARAMS, seed=2)
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        assert scored_contexts(healed) == [prompt_hash(ablate(doc, mask)) for mask in masks[start:]]
        assert healed.score_calls == resumed.scoring_requests == (self._PARAMS.m - start if budget == 1 else 1)
        assert client.cache_hits == start
        assert resumed == self._cold(tmp_path / "fresh")

    def test_a_cache_with_only_a_packed_entry_serves_a_warm_attribution(self, tmp_path):
        # The layout a cache filled before per-request entries keeps once its
        # per-context entries are deleted: the packed entry alone, written here
        # field by field as it was then.
        path = self._path(tmp_path)
        path.parent.mkdir()
        entry = {
            "request": {"kind": "packed_score", "key": path.stem},
            "response": {
                "total_logprob": self._scores(self._PARAMS.m),
                "token_count": [len(self._RESPONSE.split())] * self._PARAMS.m,
            },
        }
        path.write_text(json.dumps(entry, ensure_ascii=False))
        assert self._warm(tmp_path) == self._cold(tmp_path / "fresh")
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]

    def test_an_entry_that_also_holds_token_counts_hits_and_is_not_rewritten(self, tmp_path):
        # An entry written when scores also carried a token count holds a
        # token_count list beside its total_logprob list; the counts go unread.
        cold = self._cold(tmp_path)
        path = self._path(tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["response"]["token_count"] = [len(self._RESPONSE.split())] * self._PARAMS.m
        path.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
        before = _cache_state(tmp_path / "cache")
        warm = self._warm(tmp_path)
        assert warm == cold and warm.iterations == 0
        assert _cache_state(tmp_path / "cache") == before

    def test_the_contexts_of_two_requests_are_never_alive_together(self, tmp_path, monkeypatch):
        from higen import attribution

        # Twelve long sentences; each request holds two to four half-documents.
        words = [sentence.split()[1] for sentence in _SYNTH_SENTENCES]
        doc = doc_from_sentences([" ".join([word] * 600).capitalize() + "." for word in words])
        assert len(doc.sentences) == 12
        budget = 2 * sum(len(text) for text in doc.labelled_sentences)
        monkeypatch.setattr(attribution, "SCORE_REQUEST_CHARS", budget)
        params = AttributionParams(m=16)
        lengths = context_lengths(doc, sample_masks(len(doc.sentences), params.m, params.keep_prob, 1))
        sizes = [int(lengths[run.start : run.stop].sum()) for run in request_runs(lengths.tolist(), budget)]
        # Any two requests' contexts together exceed the bound below.
        assert len(sizes) >= 4 and min(sizes) > max(sizes) / 2
        scorer = lambda ctx, cont: -1.0  # noqa: E731
        # A first attribution pays for what a process does once (imports, caches).
        contextcite_attribute(_client_with_scorer(tmp_path / "first", scorer), doc, "The draft.", "m", params, 0)
        client = _client_with_scorer(tmp_path, scorer)
        result, peak = traced_peak(contextcite_attribute, client, doc, "The draft.", "m", params, 1)
        assert result.scoring_requests == len(sizes)
        assert peak < 1.5 * max(sizes)

    def test_too_few_usable_samples_keep_the_scores_without_weights(self, tmp_path):
        doc = doc_from_sentences(_SYNTH_SENTENCES)
        params = AttributionParams(m=16)

        def drop_without_third(ctx, cont):
            return overlap_scorer(ctx, cont) if _SYNTH_SENTENCES[2] in ctx else 0.0

        client = _client_with_scorer(tmp_path, drop_without_third)
        with pytest.raises(AttributionError, match="ablation samples usable"):
            contextcite_attribute(client, doc, "resp", "m", params, seed=0)
        path = _packed_entry(tmp_path / "cache", doc, "resp", "m", params, 0)
        assert list((tmp_path / "cache").glob("*.json")) == [path] and client.backend_calls == 1
        masks = sample_masks(len(doc.sentences), params.m, params.keep_prob, 0)
        expected = [drop_without_third(ablate(doc, mask), "resp") for mask in masks]
        assert json.loads(path.read_text(encoding="utf-8"))["response"] == {"total_logprob": expected}
        before = _cache_state(tmp_path / "cache")
        with pytest.raises(AttributionError, match="ablation samples usable"):
            contextcite_attribute(client, doc, "resp", "m", params, seed=0)
        assert client.backend_calls == 1 and client.cache_hits == params.m
        assert _cache_state(tmp_path / "cache") == before

    def test_the_dump_of_a_packed_hit_equals_the_cold_dump(self, tmp_path, monkeypatch):
        self._cold(tmp_path, dump_path=tmp_path / "cold.jsonl")
        _forbid(monkeypatch, LLMClient, "score_batch")
        self._warm(tmp_path, dump_path=tmp_path / "warm.jsonl")
        assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()

    def test_each_attribution_logs_one_debug_line_without_text(self, tmp_path, caplog):
        doc = doc_from_sentences(_SYNTH_SENTENCES, doc_id="doc-7")
        with caplog.at_level(logging.DEBUG, logger="higen.attribution"):
            cold = self._cold(tmp_path, doc=doc)
            warm = self._warm(tmp_path, doc=doc)
        assert [record.name for record in caplog.records] == ["higen.attribution"] * 2
        assert [record.levelno for record in caplog.records] == [logging.DEBUG] * 2
        first, second = (record.getMessage() for record in caplog.records)
        assert cold.iterations > 0 and warm.iterations == 0
        for message, iterations, cached, fit in (
            (first, cold.iterations, 0, "a fit from zero"),
            (second, 0, 16, "a certified cached solution"),
        ):
            assert message.startswith("attribution of doc-7: n=12, 16/16 samples usable, lambda=")
            assert f", {iterations} iterations, converged={cold.converged}" in message
            assert message.endswith(f", {cached}/16 scores cached, weights from {fit}")
            assert not any(word in message for word in ("Bridge", "banana", "Anchor", "apple"))
        assert warm == cold

    def test_the_result_and_debug_line_count_the_requests_sent(self, tmp_path, monkeypatch, caplog):
        doc = doc_from_sentences(_SYNTH_SENTENCES, doc_id="doc-7")
        runs = _small_budget_runs(monkeypatch, doc, self._PARAMS, 2)
        masks = sample_masks(len(doc.sentences), self._PARAMS.m, self._PARAMS.keep_prob, 2)
        lengths = context_lengths(doc, masks)
        sizes = [int(lengths[run.start : run.stop].sum()) for run in runs]
        assert max(sizes) <= _SMALL_BUDGET
        with caplog.at_level(logging.DEBUG, logger="higen.attribution"):
            cold = self._cold(tmp_path, doc=doc)
            warm = self._warm(tmp_path, doc=doc)
            # Keep the scores of every request but the last, and no weights.
            path = self._path(tmp_path, doc)
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["response"] = {"total_logprob": entry["response"]["total_logprob"][: runs[-1].start]}
            path.write_text(json.dumps(entry), encoding="utf-8")
            resumed = contextcite_attribute(
                _client_with_scorer(tmp_path, overlap_scorer), doc, self._RESPONSE, "m", self._PARAMS, seed=2
            )
        assert (cold.scoring_requests, warm.scoring_requests, resumed.scoring_requests) == (len(runs), 0, 1)
        assert cold == warm == resumed
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 3
        assert f", {len(runs)} scoring requests, the largest of {max(sizes)} context characters, 0/16 " in messages[0]
        assert ", 0 scoring requests, the largest of 0 context characters, 16/16 scores cached, " in messages[1]
        resumed_line = f", 1 scoring requests, the largest of {sizes[-1]} context characters, {runs[-1].start}/16 "
        assert resumed_line in messages[2]


class TestAttributionHighlights:
    def _result(self, scores):
        from higen.attribution import AttributionResult

        return AttributionResult(
            scores=list(scores), intercept=0.0, lambda_=0.1, num_ablations=8, r_squared=0.9, seed=0
        )

    def test_filter_and_reorder(self):
        doc = doc_from_sentences(["S zero.", "S one.", "S two.", "S three."])
        hs = ranked_highlights("contextcite", doc, self._result([0.5, 0.0, -0.2, 0.9]).scores, k=30)
        assert [h.source_index for h in hs.items] == [0, 3]
        assert hs.method == "contextcite"

    def test_all_zero_scores_empty_set(self):
        doc = doc_from_sentences(["S zero.", "S one."])
        hs = ranked_highlights("contextcite", doc, self._result([0.0, 0.0]).scores, k=5)
        assert hs.items == ()

    def test_top_k_cap(self):
        doc = doc_from_sentences(["S zero.", "S one."])
        hs = ranked_highlights("contextcite", doc, self._result([0.5, 0.9]).scores, k=1)
        assert [h.source_index for h in hs.items] == [1]

    def test_never_emits_nonpositive_or_duplicates(self):
        doc = doc_from_sentences(["S zero.", "S one.", "S two."])
        hs = ranked_highlights("contextcite", doc, self._result([0.1, -0.5, 0.0]).scores, k=10)
        indices = [h.source_index for h in hs.items]
        assert indices == [0]
        assert len(indices) == len(set(indices))
