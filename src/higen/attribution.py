"""Perturbation-based context attribution, in the style of ContextCite.

An attribution runs in two stages. ``score_ablations`` does the I/O: it
ablates the source sentences under random Bernoulli masks (an m x n boolean
array, one row per ablated context) and scores a fixed response after each
ablated context, through one cache entry. ``fit_plan`` is pure: it fits a
sparse linear surrogate to the logits of those scores by LASSO (``fit_lasso``).
``contextcite_attribute`` composes the two. Strictly positive weights rank
the sentences that form the content plan, through
``prompts.ranked_highlights("contextcite", ...)``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Document
from .errors import AttributionError, DomainError, HigenError, is_number, require
from .llm_client import LLMClient, packed_score_key

_logger = logging.getLogger(__name__)


# Ablated-context characters per scoring request. The response echoes every
# context with a logprob and an offset per token, so a request's body and its
# response grow with its characters, not with its count of contexts. 400,000
# characters is about the largest request that four contexts per request sent
# over the paper's 100-800-sentence range: the first one of an 800-sentence
# document, its full text (about 160k characters) and three half-contexts.
SCORE_REQUEST_CHARS = 400_000


@dataclass(frozen=True)
class AttributionParams:
    m: int = 64
    keep_prob: float = 0.5
    lambda_frac: float = 0.01

    def __post_init__(self) -> None:
        require("m", self.m, lambda m: is_number(m, int) and m >= 2, "an integer >= 2")
        require("keep_prob", self.keep_prob, lambda p: is_number(p) and 0 < p < 1, "in (0, 1)")
        require("lambda_frac", self.lambda_frac, lambda f: is_number(f) and f >= 0, ">= 0")


@dataclass
class AttributionResult:
    scores: list[float]
    intercept: float
    lambda_: float
    num_ablations: int
    r_squared: float
    seed: int
    # FISTA iterations this attribution ran; 0 when it certified a cached
    # solution. Like scoring_requests, it takes no part in equality.
    iterations: int = field(default=0, compare=False)
    converged: bool = False
    kkt_residual: float = math.nan
    # Scoring requests this attribution sent; 0 when every score was cached.
    # It says how the scores were got, not what they are, so it takes no part
    # in equality.
    scoring_requests: int = field(default=0, compare=False)


class Centered(NamedTuple):
    """A float copy of an (m, n) matrix with every column centered and each
    constant column zeroed, with the column means and which columns vary."""

    X: np.ndarray
    mean: np.ndarray
    varying: np.ndarray


class LassoFit(NamedTuple):
    """A LASSO solution with its solver diagnostics; the first three fields
    keep the order of the (weights, intercept, r_squared) triple."""

    weights: np.ndarray
    intercept: float
    r_squared: float
    iterations: int
    converged: bool
    kkt_residual: float


def _min_samples(n: int) -> int:
    """The fewest usable samples a fit over n sentences accepts: the least
    integer count >= n/2 + 2."""
    return (n + 1) // 2 + 2


def sample_masks(n: int, m: int, keep_prob: float, seed: int) -> np.ndarray:
    """An m x n boolean array of ablation masks over n sentences: the first row
    is all-ones (anchoring the unablated context), the rest are i.i.d.
    Bernoulli(keep_prob) per bit with all-zero draws resampled. The masks of
    m are the first m rows of the masks of any larger m with the same seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 0 < keep_prob < 1:
        raise ValueError("keep_prob must be in (0, 1)")
    rng = np.random.default_rng(seed)
    masks = np.ones((m, n), dtype=bool)
    # The m - 1 draws of one call are the draws of m - 1 calls of one row
    # each, so the non-zero rows of a bulk draw are the rows a loop of
    # single-row draws keeps; only the draws that replace all-zero ones are
    # made row by row.
    drawn = rng.random((m - 1, n)) < keep_prob
    kept = drawn[drawn.any(axis=1)]
    masks[1 : 1 + len(kept)] = kept
    row = 1 + len(kept)
    while row < m:
        bits = rng.random(n) < keep_prob
        if bits.any():
            masks[row] = bits
            row += 1
    return masks


def context_lengths(document: Document, masks: np.ndarray) -> np.ndarray:
    """``len(ablate(document, mask))`` for each row of ``masks``, without
    building any context: the kept sentences' characters, plus one separator
    between each two of them."""
    sentence_lengths = np.array([len(text) for text in document.labelled_sentences], dtype=np.int64)
    return masks @ sentence_lengths + np.maximum(masks.sum(axis=1) - 1, 0)


def request_runs(lengths: Sequence[int], budget: int) -> list[range]:
    """Split contexts 0..len(lengths)-1, in order, into consecutive runs, each
    as long as the next context still fits: a run's lengths add up to at most
    ``budget``, unless it holds one context that alone is longer. No
    lengths make no runs."""
    runs: list[range] = []
    first = total = 0
    for index, length in enumerate(lengths):
        if index > first and total + length > budget:
            runs.append(range(first, index))
            first, total = index, 0
        total += length
    if lengths:
        runs.append(range(first, len(lengths)))
    return runs


def ablate(document: Document, mask: np.ndarray) -> str:
    """Concatenate kept sentences in document order, single-space separated;
    transcript sentences keep their speaker prefix."""
    if len(mask) != len(document.sentences):
        raise ValueError("mask length must equal the document sentence count")
    return " ".join(compress(document.labelled_sentences, np.asarray(mask).tolist()))


def _mapped(function, values: np.ndarray) -> np.ndarray:
    """``function`` of each value, mapped over the array in C."""
    return np.fromiter(map(function, values.tolist()), dtype=float, count=len(values))


def logit_scales(scores: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The ``logit_scale`` of every score that has a finite logit, in order,
    and the boolean mask of those scores. Each branch maps the same ``math``
    functions over all of its scores at once, so every logit equals
    ``logit_scale``'s bit for bit. The scores must be numbers in float range."""
    values = np.array(scores, dtype=float)
    usable = np.isfinite(values) & (values < 0.0)
    logprobs = values[usable]
    upper = logprobs > -math.log(2.0)
    log1mexp = np.empty_like(logprobs)
    log1mexp[upper] = _mapped(math.log, -_mapped(math.expm1, logprobs[upper]))
    log1mexp[~upper] = _mapped(math.log1p, -_mapped(math.exp, logprobs[~upper]))
    return logprobs - log1mexp, usable


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


def center(X: np.ndarray) -> Centered:
    """X (a boolean mask array or floats: finite, m x n, m >= 2) centered in
    one float copy; the caller's array is left as it is. ``lambda_max`` and
    ``fit_lasso`` take the result in place of X, so that calls on one X share
    one copy."""
    Xc = np.array(X, dtype=float)
    if not np.isfinite(Xc).all():
        raise ValueError("non-finite values in LASSO input")
    if Xc.ndim != 2:
        raise ValueError("X must be (m, n) and y length m")
    if Xc.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mean = Xc.mean(axis=0)
    varying = Xc.max(axis=0) != Xc.min(axis=0)
    Xc -= mean
    Xc[:, ~varying] = 0.0
    return Centered(Xc, mean, varying)


def lambda_max(X: np.ndarray | Centered, y: np.ndarray) -> float:
    """Smallest penalty shrinking every weight to zero: max |X~^T (y - mean y)| / m
    over the columns of ``center(X)``, whose constant columns count zero, as
    in ``fit_lasso``."""
    Xc = (X if isinstance(X, Centered) else center(X)).X
    y = np.asarray(y, dtype=float)
    return float(np.abs(Xc.T @ (y - y.mean())).max() / Xc.shape[0])


def fit_lasso(
    X: np.ndarray | Centered,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-11,
    max_iter: int = 10_000,
    start: np.ndarray | Sequence[float] | None = None,
) -> LassoFit:
    """Minimize (1/2m)||y - b - Xw||^2 + lam*||w||_1, the intercept b
    unpenalized, by FISTA (Beck & Teboulle 2009) with gradient-based adaptive
    restart (O'Donoghue & Candes 2015).

    The problem is solved on centered X and y, so b = mean(y) - mean(X) . w.
    Each FISTA step goes from the extrapolated point z to
    w+ = soft_threshold(z - g(z)/L, lam/L), with g(z) = Xc^T (Xc z - yc) / m
    in matrix-vector form. The momentum restarts whenever
    (z - w+) . (w+ - w) > 0, and L doubles whenever a step breaks the bound
    ||Xc d||^2 / m <= L ||d||^2 it relies on. L starts at the largest
    diagonal entry of Xc^T Xc / m, which is at most its largest eigenvalue
    (the bound's least constant) and at least 1/n of it (the trace), so L
    doubles at most ceil(log2 n) times over a fit. Iteration stops once the
    KKT residual -- max(|g_j| - lam, 0) where w_j = 0 and |g_j + lam sign(w_j)|
    elsewhere -- is at most tol, or after max_iter steps; such a fit is
    returned with converged=False. Constant columns are zeroed, so their g_j,
    w_j and residual terms are exactly 0. The weight error is at most the
    residual over the smallest eigenvalue of Xc^T Xc / m, so the default tol
    sits well below the 1e-8 agreement the lambda = 0 fits owe the normal
    equations.

    FISTA starts at zero, or at ``start`` (n finite weights; its entries on
    constant columns are zeroed). A start that already meets tol is returned
    as it is, with 0 iterations, so ``max_iter=0`` makes the call a pure
    certificate of ``start``: converged says whether its KKT residual is at
    most tol, and the intercept and r^2 are those at ``start``.

    X may be a boolean mask array, which is centered in one float copy (the
    caller's array is left as it is), or that copy, ``center(X)``.
    """
    Xc, x_mean, varying = X if isinstance(X, Centered) else center(X)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("non-finite values in LASSO input")
    if y.ndim != 1 or Xc.shape[0] != y.shape[0]:
        raise ValueError("X must be (m, n) and y length m")
    m, n = Xc.shape
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    w = np.zeros(n) if start is None else np.array(start, dtype=float)
    if w.shape != (n,) or not np.isfinite(w).all():
        raise ValueError("start must hold n finite weights")

    yc = y - y.mean()

    def kkt_residual(w: np.ndarray, g: np.ndarray) -> float:
        violation = np.where(w == 0.0, np.maximum(np.abs(g) - lam, 0.0), np.abs(g + lam * np.sign(w)))
        return float(violation.max(initial=0.0))

    # u = Xc w - yc is the negated residual and g = Xc^T u / m the gradient at w.
    w[~varying] = 0.0
    u = Xc @ w - yc
    g = Xc.T @ u / m
    residual = kkt_residual(w, g)
    iterations = 0
    if residual > tol:
        L = max(float(np.einsum("ij,ij->j", Xc, Xc).max()) / m, np.finfo(float).tiny)
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


class Ablations(NamedTuple):
    """The masks and cache key of ``score_ablations``, every score in mask order,
    the entry's weights and count of scores, and each request's characters."""

    masks: np.ndarray
    key: str
    scores: list[float]
    cached_weights: list[float] | None
    cached: int
    sent: list[int]


def score_ablations(
    client: LLMClient, document: Document, response: str, model: str, params: AttributionParams, seed: int
) -> Ablations:
    """Score ``response`` after each ablated context of ``params.m`` masks.

    The scores are cached as one entry under ``packed_score_key``, which covers
    the model, the response, every labelled sentence and the mask bits with
    their shape. Only the contexts past the scores the entry holds are scored:
    each run of ``request_runs`` over their lengths, taken from the mask bits
    and sentence lengths, and ``SCORE_REQUEST_CHARS`` is one scoring request.
    A request's contexts are built when it is sent and let go before the next
    one's. The entry is rewritten with every score so far after each request,
    so an interrupted attribution resumes after the scores it holds, whatever
    the budget; a warm rerun reads the one entry and builds no context."""
    masks = sample_masks(len(document.sentences), params.m, params.keep_prob, seed)
    key = packed_score_key(model, response, document.labelled_sentences, masks)
    scores, cached_weights = client.read_attribution(key, *masks.shape)
    done = len(scores)
    sent: list[int] = []
    lengths = context_lengths(document, masks[done:]).tolist() if done < params.m else []
    for run in request_runs(lengths, SCORE_REQUEST_CHARS):
        start, stop = done + run.start, done + run.stop
        try:
            scores += client.score_batch(model, response, [ablate(document, mask) for mask in masks[start:stop]])
        except HigenError as exc:
            raise AttributionError(f"scoring failed on the batch from ablation mask {start}: {exc}") from exc
        sent.append(sum(lengths[run.start : run.stop]))
        client.write_attribution(key, scores)
    return Ablations(masks, key, scores, cached_weights, done, sent)


def fit_plan(
    rows: np.ndarray, y: np.ndarray, lambda_frac: float, cached_weights: Sequence[float] | None = None
) -> tuple[LassoFit, float, bool]:
    """The LASSO fit of the logits ``y`` on the mask ``rows`` at lambda =
    lambda_frac * lambda_max, that lambda, and whether the fit is
    ``cached_weights``, certified. It takes no client.

    One float copy, ``center(rows)``, serves lambda_max, the certificate and a
    fit from zero. Cached weights that pass the solver's own KKT certificate at
    this lambda (``fit_lasso`` from them with ``max_iter=0``) are the fit, with
    0 iterations; absent weights or weights that are not optimal (say, under a
    changed lambda_frac) are fit again from zero."""
    centered = center(rows)
    lam = lambda_frac * lambda_max(centered, y)
    if cached_weights is not None:
        fit = fit_lasso(centered, y, lam, start=cached_weights, max_iter=0)
        if fit.converged:
            return fit, lam, True
    return fit_lasso(centered, y, lam), lam, False


def contextcite_attribute(
    client: LLMClient,
    document: Document,
    response: str,
    model: str,
    params: AttributionParams = AttributionParams(),
    seed: int = 0,
    dump_path: str | Path | None = None,
) -> AttributionResult:
    """Per-sentence influence weights for a fixed response: ``fit_plan`` of the
    ``score_ablations`` that have a finite logit (a probability-1 or
    non-finite score has none, and its sample is dropped).

    The fit needs at least n/2 + 2 usable samples; when params.m is below
    that, it raises before any mask is drawn or request sent. When this call
    sent a request and the fit converged, the weights go into the entry beside
    the m scores. A fit that does not converge is returned, not raised. Each
    attribution logs one DEBUG line on ``higen.attribution``, which holds no
    text. With dump_path set, the usable (mask, logit) pairs are written as
    JSONL, masks as lists of 0/1, which ``fit_plan`` refits offline.
    """
    if not response:
        raise AttributionError("response must be non-empty")
    n = len(document.sentences)
    if n < 1:
        raise AttributionError("document has no sentences")
    need = _min_samples(n)
    if params.m < need:
        raise AttributionError(f"{params.m} ablation samples for {n} sentences; need at least {need} usable")
    ablations = score_ablations(client, document, response, model, params, seed)
    y, usable = logit_scales(ablations.scores)
    rows = ablations.masks[usable]
    if len(rows) < need:
        raise AttributionError(f"only {len(rows)} of {params.m} ablation samples usable; need at least {need}")
    fit, lam, certified = fit_plan(rows, y, params.lambda_frac, ablations.cached_weights)
    weights = fit.weights.tolist()
    if ablations.sent and fit.converged:
        client.write_attribution(ablations.key, ablations.scores, weights)
    if dump_path is not None:
        with Path(dump_path).open("w", encoding="utf-8") as handle:
            for bits, logit in zip(rows, y.tolist()):
                handle.write(json.dumps({"mask": bits.astype(int).tolist(), "logit": logit}) + "\n")
    _logger.debug(
        "attribution of %s: n=%d, %d/%d samples usable, lambda=%.6g, r2=%.6g, %d iterations, converged=%s, "
        "%d scoring requests, the largest of %d context characters, %d/%d scores cached, weights from %s",
        document.id,
        n,
        len(rows),
        params.m,
        lam,
        fit.r_squared,
        fit.iterations,
        fit.converged,
        len(ablations.sent),
        max(ablations.sent, default=0),
        ablations.cached,
        params.m,
        "a certified cached solution" if certified else "a fit from zero",
    )
    return AttributionResult(
        scores=weights,
        intercept=fit.intercept,
        lambda_=float(lam),
        num_ablations=len(rows),
        r_squared=fit.r_squared,
        seed=seed,
        iterations=fit.iterations,
        converged=fit.converged,
        kkt_residual=fit.kkt_residual,
        scoring_requests=len(ablations.sent),
    )
