"""Perturbation-based context attribution.

Source sentences are ablated under random Bernoulli masks (an m x n boolean
array, one row per ablated context), a fixed response is re-scored under each
ablated context, ``SCORE_BATCH`` contexts per scoring request, and the
resulting log-probabilities are mapped to logits. Each context's cache key is
built from the document's sentences, JSON-escaped once per document, so a warm
rerun does not re-encode every ablated context to look it up; the keys equal
those of plain requests. A sparse linear surrogate is fit to the logits by
LASSO, solved with FISTA (Beck & Teboulle 2009) with gradient-based adaptive
restart (O'Donoghue & Candes 2015) on the centered mask matrix, in
matrix-vector form. The solver stops once the KKT residual is at most ``tol``
and reports its iterations, whether it converged and the final residual.
Strictly positive weights rank the sentences that form the content plan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Document
from .errors import AttributionError, DomainError, HigenError
from .llm_client import LLMClient, ScoreRequest, score_key
from .prompts import Highlight, HighlightSet


# Ablated contexts scored per request. Each is about half the document, and the
# response echoes every context with a logprob and an offset per token, so a
# batch's request and response grow with it: on a 401-sentence transcript, 8
# per request raised the HTTP benchmark's peak RSS by 8% over one per request,
# 4 per request by 5%.
SCORE_BATCH = 4


@dataclass(frozen=True)
class AttributionParams:
    m: int = 64
    keep_prob: float = 0.5
    lambda_frac: float = 0.01


@dataclass
class AttributionResult:
    scores: list[float]
    intercept: float
    lambda_: float
    num_ablations: int
    r_squared: float
    seed: int
    iterations: int = 0
    converged: bool = False
    kkt_residual: float = math.nan


class LassoFit(NamedTuple):
    """A LASSO solution with its solver diagnostics; the first three fields
    keep the order of the (weights, intercept, r_squared) triple."""

    weights: np.ndarray
    intercept: float
    r_squared: float
    iterations: int
    converged: bool
    kkt_residual: float


def sample_masks(n: int, m: int, keep_prob: float, seed: int) -> np.ndarray:
    """An m x n boolean array of ablation masks over n sentences: the first row
    is all-ones (anchoring the unablated context), the rest are i.i.d.
    Bernoulli(keep_prob) per bit with all-zero draws resampled."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 < keep_prob < 1:
        raise ValueError("keep_prob must be in (0, 1)")
    rng = np.random.default_rng(seed)
    masks = np.ones((m, n), dtype=bool)
    row = 1
    while row < m:
        bits = rng.random(n) < keep_prob
        if bits.any():
            masks[row] = bits
            row += 1
    return masks


def ablate(document: Document, mask: np.ndarray) -> str:
    """Concatenate kept sentences in document order, single-space separated;
    transcript sentences keep their speaker prefix."""
    if len(mask) != len(document.sentences):
        raise ValueError("mask length must equal the document sentence count")
    return " ".join(compress(document.labelled_sentences, np.asarray(mask).tolist()))


def logit_scale(total_logprob: float) -> float:
    """Map log p to log(p / (1 - p)) stably in log space.

    For L = log p the result is L - log1mexp(L) where log1mexp uses the
    expm1 branch above -ln 2 and the log1p branch below it. L = 0 (a
    probability-1 continuation) and a non-finite L have no finite logit and
    are rejected.
    """
    if not math.isfinite(total_logprob):
        raise DomainError(f"total_logprob must be finite, got {total_logprob}")
    if not total_logprob <= 0.0:
        raise DomainError(f"total_logprob must be <= 0, got {total_logprob}")
    if total_logprob == 0.0:
        raise DomainError("total_logprob = 0 maps to an infinite logit")
    if total_logprob > -math.log(2.0):
        log1mexp = math.log(-math.expm1(total_logprob))
    else:
        log1mexp = math.log1p(-math.exp(total_logprob))
    return total_logprob - log1mexp


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty shrinking every weight to zero: max |X~^T (y - mean y)| / m
    over centered columns."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    centered = X - X.mean(axis=0)
    return float(np.abs(centered.T @ (y - y.mean())).max() / X.shape[0])


_POWER_ITERATIONS = 20


def _lipschitz_estimate(centered: np.ndarray) -> float:
    """Power-iteration estimate of the largest eigenvalue of Xc^T Xc / m, the
    Lipschitz constant of the least-squares gradient, from matrix-vector
    products only. It can fall short of the true value; fit_lasso backtracks
    whenever a step shows that it does."""
    m, n = centered.shape
    v = np.random.default_rng(0).standard_normal(n)
    estimate = 0.0
    for _ in range(_POWER_ITERATIONS):
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            break
        v = centered.T @ (centered @ (v / norm)) / m
        estimate = float(np.linalg.norm(v))
    return estimate


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-11,
    max_iter: int = 10_000,
) -> LassoFit:
    """Minimize (1/2m)||y - b - Xw||^2 + lam*||w||_1; the intercept b is
    unpenalized.

    The problem is solved on centered X and y, so b = mean(y) - mean(X) . w.
    Each FISTA step goes from the extrapolated point z to
    w+ = soft_threshold(z - g(z)/L, lam/L), with g(z) = Xc^T (Xc z - yc) / m
    in matrix-vector form. The momentum restarts whenever
    (z - w+) . (w+ - w) > 0, and L doubles whenever a step breaks the bound
    ||Xc d||^2 / m <= L ||d||^2 it relies on. Iteration stops once the KKT
    residual -- max(|g_j| - lam, 0) where w_j = 0 and |g_j + lam sign(w_j)|
    elsewhere, over the non-constant columns -- is at most tol, or after
    max_iter steps; such a fit is returned with converged=False. Constant
    columns keep weight exactly 0. The weight error is at most the residual
    over the smallest eigenvalue of Xc^T Xc / m, so the default tol sits well
    below the 1e-8 agreement the lambda = 0 fits owe the normal equations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in LASSO input")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (m, n) and y length m")
    m, n = X.shape
    if m < 2:
        raise ValueError("need at least 2 samples")
    if lam < 0:
        raise ValueError("lambda must be >= 0")

    x_mean = X.mean(axis=0)
    varying = X.max(axis=0) != X.min(axis=0)
    Xc = X - x_mean
    Xc[:, ~varying] = 0.0
    yc = y - y.mean()

    def kkt_residual(w: np.ndarray, g: np.ndarray) -> float:
        violation = np.where(w == 0.0, np.maximum(np.abs(g) - lam, 0.0), np.abs(g + lam * np.sign(w)))
        return float(violation[varying].max(initial=0.0))

    # u = Xc w - yc is the negated residual and g = Xc^T u / m the gradient at w.
    w = np.zeros(n)
    u = -yc
    g = Xc.T @ u / m
    residual = kkt_residual(w, g)
    iterations = 0
    if residual > tol:
        L = max(_lipschitz_estimate(Xc), np.finfo(float).tiny)
        t, z, gz = 1.0, w, g
        while residual > tol and iterations < max_iter:
            iterations += 1
            while True:
                step = z - gz / L
                w_next = np.sign(step) * np.maximum(np.abs(step) - lam / L, 0.0)
                d = w_next - z
                image = Xc @ d
                if image @ image <= L * m * (d @ d):
                    break
                L *= 2.0
            u_next = Xc @ w_next - yc
            g_next = Xc.T @ u_next / m
            residual = kkt_residual(w_next, g_next)
            if (z - w_next) @ (w_next - w) > 0.0:
                t, z, gz = 1.0, w_next, g_next
            else:
                t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
                beta = (t - 1.0) / t_next
                t = t_next
                # g is affine in w, so the gradient at z is the same combination.
                z = w_next + beta * (w_next - w)
                gz = g_next + beta * (g_next - g)
            w, u, g = w_next, u_next, g_next

    sst = float(yc @ yc)
    r_squared = 1.0 if sst == 0.0 else 1.0 - float(u @ u) / sst
    intercept = float(y.mean() - x_mean @ w)
    return LassoFit(w, intercept, r_squared, iterations, residual <= tol, residual)


def contextcite_attribute(
    client: LLMClient,
    document: Document,
    response: str,
    model: str,
    params: AttributionParams = AttributionParams(),
    seed: int = 0,
    dump_path: str | Path | None = None,
) -> AttributionResult:
    """Per-sentence influence weights for a fixed response.

    The ablated contexts are scored by the client SCORE_BATCH at a time, one
    request per batch, each context cached on its own; logit-scaled totals
    are regressed on the mask bits with lambda = lambda_frac * lambda_max.
    Samples without a finite logit (probability 1, or a non-finite logprob)
    are dropped; the fit requires more than n/2 + 2 surviving samples. The
    solver's iterations, convergence and KKT residual are reported on the
    result; a fit that does not converge is returned, not raised. With
    dump_path set, the (mask, logit) pairs are written as JSONL (masks as
    lists of 0/1) for offline refits.
    """
    if not response:
        raise AttributionError("response must be non-empty")
    n = len(document.sentences)
    if n < 1:
        raise AttributionError("document has no sentences")
    masks = sample_masks(n, params.m, params.keep_prob, seed)
    escaped = document.escaped_sentences
    usable = np.zeros(len(masks), dtype=bool)
    targets: list[float] = []
    for first in range(0, len(masks), SCORE_BATCH):
        batch = [
            ScoreRequest(
                model=model,
                context=ablate(document, mask),
                continuation=response,
                key=score_key(model, response, b" ".join(compress(escaped, mask.tolist()))),
            )
            for mask in masks[first : first + SCORE_BATCH]
        ]
        try:
            scored = client.score_many(batch, doc_id=document.id)
        except HigenError as exc:
            raise AttributionError(f"scoring failed on the batch from ablation mask {first}: {exc}") from exc
        for index, score in enumerate(scored, start=first):
            try:
                targets.append(logit_scale(score.total_logprob))
            except DomainError:
                continue
            usable[index] = True
    rows = masks[usable]
    if len(rows) < n / 2 + 2:
        raise AttributionError(
            f"only {len(rows)} of {params.m} ablation samples usable; need more than {n / 2 + 2:.0f}"
        )
    if dump_path is not None:
        with Path(dump_path).open("w", encoding="utf-8") as handle:
            for bits, logit in zip(rows.astype(int).tolist(), targets):
                handle.write(json.dumps({"mask": bits, "logit": logit}) + "\n")
    X = rows.astype(float)
    y = np.array(targets, dtype=float)
    lam = params.lambda_frac * lambda_max(X, y)
    fit = fit_lasso(X, y, lam)
    return AttributionResult(
        scores=[float(w) for w in fit.weights],
        intercept=fit.intercept,
        lambda_=float(lam),
        num_ablations=len(rows),
        r_squared=fit.r_squared,
        seed=seed,
        iterations=fit.iterations,
        converged=fit.converged,
        kkt_residual=fit.kkt_residual,
    )


def attribution_highlights(result: AttributionResult, document: Document, k: int) -> HighlightSet:
    """Top-k strictly positive attribution scores, re-ordered by document
    position. Zero positive scores yield an empty set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    positives = [(i, s) for i, s in enumerate(result.scores) if s > 0]
    positives.sort(key=lambda pair: (-pair[1], pair[0]))
    chosen = sorted(i for i, _ in positives[: min(k, len(positives))])
    items = tuple(
        Highlight(text=document.sentences[i].text, source_index=i, alignment_score=1.0) for i in chosen
    )
    return HighlightSet(method="contextcite", items=items, k_requested=k)
