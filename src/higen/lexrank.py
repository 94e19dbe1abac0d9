"""Unsupervised extractive highlighting by graph centrality (LexRank).

Sentences are tf-idf rows over the document's token index, L2-normalized, so
the modified cosines of all pairs are one product, weights = T @ T.T (Erkan &
Radev 2004), with the diagonal set to 1 and entries below a threshold zeroed.
A damped power iteration over the degree-normalized graph yields a stationary
saliency distribution. The top-k sentences, re-ordered by document position,
form the content plan.

The weights are the one n x n float64 array a ranking holds (5 MB at 800
sentences, 32 MB at 2,000): each row is thresholded as it is computed, and
the iteration normalizes by the row sums on the fly instead of building a
transition matrix. The matrix is symmetric, so each similarity is computed
once: row i only from column i on (the half row), copied into column i. Every
cell is still the sum of its products in term order from zero, so the matrix
is bit-identical to the full rows', and no product starts a BLAS thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, TokenIndex
from .errors import is_number, require
from .prompts import HighlightSet, ranked_highlights


@dataclass(frozen=True)
class LexRankParams:
    threshold: float = 0.1
    damping: float = 0.85

    def __post_init__(self) -> None:
        require("threshold", self.threshold, lambda t: is_number(t) and 0 <= t <= 1, "in [0, 1]")
        require("damping", self.damping, lambda d: is_number(d) and 0 < d < 1, "in (0, 1)")


@dataclass
class CentralityScores:
    scores: np.ndarray
    iterations: int
    converged: bool


def tfidf(index: TokenIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse tf*idf entries (sentence, term, weight) over sentences-as-documents.

    tf is the raw in-sentence count; idf = ln((n+1)/(df+1)) + 1. Stopwords
    are dropped before counting.
    """
    sentence, term, count = index.term_counts()
    kept = ~index.stop[term]
    sentence, term, count = sentence[kept], term[kept], count[kept]
    df = np.bincount(term, minlength=len(index.vocab))
    idf = np.log((len(index.lengths) + 1) / (df[term] + 1)) + 1.0
    return sentence, term, count * idf


def build_similarity_graph(index: TokenIndex, threshold: float = 0.1) -> np.ndarray:
    """The graph's n x n weights: the symmetric modified-cosine matrix with
    unit diagonal; entries below the threshold are zeroed."""
    n = len(index.lengths)
    sentence, term, weight = tfidf(index)
    norms = np.sqrt(np.bincount(sentence, weights=weight * weight, minlength=n))
    # a term in one sentence only adds to that sentence's norm and diagonal
    shared = np.bincount(term, minlength=len(index.vocab)) >= 2
    entry = shared[term]
    sentence, weight = sentence[entry], weight[entry] / norms[sentence[entry]]
    term = (np.cumsum(shared) - 1)[term[entry]]
    columns = np.zeros((int(shared.sum()), n))
    columns[term, sentence] = weight
    # Row i of T @ T.T sums the columns of i's terms scaled by its weights.
    # Cell (i, j) sums the products of the terms i and j share, in term order,
    # whichever of the two rows computes it, so the half row from column i on,
    # written to row i and to column i, gives the full rows' matrix bit for
    # bit. einsum without ``optimize`` adds the products in its own loop: no
    # BLAS thread pool whose idle workers spin on the CPU after a dense product.
    bounds = np.searchsorted(sentence, np.arange(n + 1))
    weights = np.empty((n, n))
    for i in range(n):
        entries = slice(bounds[i], bounds[i + 1])
        row = np.einsum("k,kn->n", weight[entries], columns[term[entries], i:])
        row[row < threshold] = 0.0
        weights[i, i:] = row
        weights[i:, i] = row
    # 1 >= threshold, so setting the diagonal after thresholding gives the same matrix
    np.fill_diagonal(weights, 1.0)
    return weights


def centrality(
    weights: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CentralityScores:
    """Damped power iteration to the stationary distribution of the
    degree-normalized similarity graph with n x n ``weights`` W (all-zero
    rows become uniform).

    With s the row sums of W, each step is
    p' = d (W^T (p / s) + (mass of p on zero-sum rows) / n) + (1 - d) / n,
    the product of p with the row-stochastic transition matrix without
    building it: the iteration holds O(n) memory beyond the weights."""
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    n = len(weights)
    if n == 0:
        return CentralityScores(scores=np.zeros(0), iterations=0, converged=True)
    row_sums = weights.sum(axis=1)
    linked = row_sums > 0
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for iteration in range(1, max_iter + 1):
        walked = np.divide(p, row_sums, out=np.zeros(n), where=linked)
        p_next = damping * (weights.T @ walked + p[~linked].sum() / n) + teleport
        if np.abs(p_next - p).sum() < tol:
            return CentralityScores(scores=p_next, iterations=iteration, converged=True)
        p = p_next
    return CentralityScores(scores=p, iterations=max_iter, converged=False)


def dump_similarity_csv(weights: np.ndarray, path: str | Path) -> None:
    """Debug dump of the (thresholded) similarity matrix, one CSV line per
    row, written row by row."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for row in weights:
            handle.write(",".join(f"{w:.6f}" for w in row.tolist()) + "\n")


def lexrank_highlights(document: Document, k: int, params: LexRankParams = LexRankParams()) -> HighlightSet:
    """Top-k central sentences as extracted highlights, in document order.

    Ties break toward the smaller sentence index. Every score is positive
    (the teleport term alone is (1 - damping) / n), so every sentence ranks.
    """
    weights = build_similarity_graph(document.token_index, threshold=params.threshold)
    result = centrality(weights, damping=params.damping)
    return ranked_highlights("lexrank", document, result.scores, k)
