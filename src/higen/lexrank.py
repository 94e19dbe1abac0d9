"""Unsupervised extractive highlighting by graph centrality (LexRank).

Sentences are tf-idf rows over the document's token index, L2-normalized, so
the modified cosines of all pairs are one product, weights = T @ T.T (Erkan &
Radev 2004), with the diagonal set to 1 and entries below a threshold zeroed.
A damped power iteration over the degree-normalized transition matrix yields
a stationary saliency distribution. The top-k sentences, re-ordered by
document position, form the content plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, TokenIndex
from .prompts import Highlight, HighlightSet


@dataclass(frozen=True)
class LexRankParams:
    threshold: float = 0.1
    damping: float = 0.85
    tol: float = 1e-8
    max_iter: int = 200


@dataclass
class SimilarityGraph:
    n: int
    weights: np.ndarray
    threshold: float


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


def build_similarity_graph(index: TokenIndex, threshold: float = 0.1) -> SimilarityGraph:
    """Symmetric modified-cosine matrix with unit diagonal; entries below the
    threshold are zeroed."""
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
    # Row i of T @ T.T sums the columns of i's terms scaled by its weights:
    # exactly symmetric (sums in term order), and no BLAS thread pool whose
    # idle workers spin on the CPU after a dense product.
    bounds = np.searchsorted(sentence, np.arange(n + 1))
    weights = np.empty((n, n))
    for i in range(n):
        entries = slice(bounds[i], bounds[i + 1])
        weights[i] = (columns[term[entries]] * weight[entries, None]).sum(axis=0)
    np.fill_diagonal(weights, 1.0)
    weights[weights < threshold] = 0.0
    return SimilarityGraph(n=n, weights=weights, threshold=threshold)


def centrality(
    graph: SimilarityGraph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> CentralityScores:
    """Damped power iteration to the stationary distribution of the
    degree-normalized similarity graph (all-zero rows become uniform)."""
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    n = graph.n
    if n == 0:
        return CentralityScores(scores=np.zeros(0), iterations=0, converged=True)
    row_sums = graph.weights.sum(axis=1, keepdims=True)
    transition = np.where(row_sums > 0, graph.weights / np.where(row_sums == 0, 1.0, row_sums), 1.0 / n)
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for iteration in range(1, max_iter + 1):
        p_next = damping * (transition.T @ p) + teleport
        if np.abs(p_next - p).sum() < tol:
            return CentralityScores(scores=p_next, iterations=iteration, converged=True)
        p = p_next
    return CentralityScores(scores=p, iterations=max_iter, converged=False)


def dump_similarity_csv(graph: SimilarityGraph, path: str | Path) -> None:
    """Debug dump of the (thresholded) similarity matrix."""
    lines = [",".join(f"{graph.weights[i, j]:.6f}" for j in range(graph.n)) for i in range(graph.n)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def lexrank_highlights(document: Document, k: int, params: LexRankParams = LexRankParams()) -> HighlightSet:
    """Top-k central sentences as extracted highlights, in document order.

    Ties break toward the smaller sentence index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(document.sentences)
    if n == 0:
        return HighlightSet(method="lexrank", items=(), k_requested=k)
    graph = build_similarity_graph(document.token_index, threshold=params.threshold)
    result = centrality(graph, damping=params.damping, tol=params.tol, max_iter=params.max_iter)
    order = sorted(range(n), key=lambda i: (-result.scores[i], i))
    chosen = sorted(order[: min(k, n)])
    items = tuple(
        Highlight(text=document.sentences[i].text, source_index=i, alignment_score=1.0) for i in chosen
    )
    return HighlightSet(method="lexrank", items=items, k_requested=k)
