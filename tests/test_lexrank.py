from __future__ import annotations

import math
import random

import numpy as np
import pytest

from higen.corpus import STOPWORDS, TokenIndex, tokenize
from higen.lexrank import (
    LexRankParams,
    SimilarityGraph,
    build_similarity_graph,
    centrality,
    lexrank_highlights,
    tfidf,
)

from conftest import doc_from_sentences


def _tfidf_rows(texts: list[str]) -> list[dict[str, float]]:
    """The sparse tf-idf entries of an index, as one token -> weight dict per sentence."""
    index = TokenIndex.build(texts)
    terms = list(index.vocab)
    rows: list[dict[str, float]] = [{} for _ in texts]
    for sentence, term, weight in zip(*tfidf(index)):
        rows[sentence][terms[term]] = weight
    return rows


def _cosine(texts: list[str]) -> float:
    """Graph weight between the first two sentences, with no threshold."""
    return build_similarity_graph(TokenIndex.build(texts), threshold=0.0).weights[0, 1]


def _brute_force_tfidf(texts: list[str]) -> list[dict[str, float]]:
    token_lists = [[t for t in tokenize(x) if t not in STOPWORDS] for x in texts]
    n = len(texts)
    vocabulary = {t for toks in token_lists for t in toks}
    df = {t: sum(t in set(toks) for toks in token_lists) for t in vocabulary}
    out = []
    for toks in token_lists:
        vec = {}
        for t in set(toks):
            tf = toks.count(t)
            idf = math.log((n + 1) / (df[t] + 1)) + 1.0
            vec[t] = tf * idf
        out.append(vec)
    return out


def _brute_force_cosine(u: dict[str, float], v: dict[str, float]) -> float:
    dot = sum(u[t] * v[t] for t in set(u) & set(v))
    if dot == 0.0:
        return 0.0
    return dot / (math.sqrt(sum(w * w for w in u.values())) * math.sqrt(sum(w * w for w in v.values())))


class TestTfidf:
    def test_single_sentence_counts(self):
        [vec] = _tfidf_rows(["alpha alpha beta"])
        # n=1, df=1 for both tokens: idf = ln(2/2)+1 = 1
        assert vec["alpha"] == pytest.approx(2.0)
        assert vec["beta"] == pytest.approx(1.0)

    def test_identical_sentences_identical_vectors(self):
        vectors = _tfidf_rows(["gamma delta", "gamma delta"])
        assert vectors[0] == vectors[1]

    def test_stopwords_removed(self):
        [vec] = _tfidf_rows(["the quick fox"])
        assert "the" not in vec
        assert "quick" in vec

    def test_empty_token_sentence_gets_zero_vector(self):
        vectors = _tfidf_rows(["the of and", "signal here"])
        assert vectors[0] == {}

    def test_five_sentence_fixture_matches_oracle(self):
        texts = [
            "harbor dredging contract approved quickly",
            "dredging work begins next spring",
            "shipping delays doubled since sandbar formed",
            "pilots praised harbor contract work",
            "funding comes from infrastructure bond",
        ]
        mine = _tfidf_rows(texts)
        oracle = _brute_force_tfidf(texts)
        assert len(mine) == len(oracle)
        for got, want in zip(mine, oracle):
            assert set(got) == set(want)
            for token in want:
                assert got[token] == pytest.approx(want[token], abs=1e-12)


class TestModifiedCosine:
    def test_identical_sentences(self):
        assert _cosine(["signal metric panel", "signal metric panel"]) == pytest.approx(1.0)

    def test_disjoint_sentences(self):
        assert _cosine(["signal metric", "harbor bond"]) == 0.0

    def test_zero_vector_similarity_zero(self):
        assert _cosine(["the of", "signal metric"]) == 0.0

    def test_fixture_pair_matches_brute_force(self):
        texts = ["harbor dredging harbor contract", "dredging contract spring work"]
        ou, ov = _brute_force_tfidf(texts)
        dot = sum(ou[t] * ov[t] for t in set(ou) & set(ov))
        expected = dot / (math.sqrt(sum(w * w for w in ou.values())) * math.sqrt(sum(w * w for w in ov.values())))
        assert _cosine(texts) == pytest.approx(expected, abs=1e-12)

    def test_graph_matches_pairwise_brute_force(self):
        # every pair of a 120-sentence document, including all-stopword and
        # repeated sentences, against the per-pair dict cosine
        rng = random.Random(2004)
        words = [f"w{i}" for i in range(60)] + ["the", "of", "and"]
        texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 12))) for _ in range(118)]
        texts += ["the of and", texts[5]]
        for threshold in (0.0, 0.1):
            graph = build_similarity_graph(TokenIndex.build(texts), threshold=threshold)
            vectors = _brute_force_tfidf(texts)
            expected = np.array([[_brute_force_cosine(u, v) for v in vectors] for u in vectors])
            np.fill_diagonal(expected, 1.0)
            assert np.abs(graph.weights - np.where(expected < threshold, 0.0, expected)).max() < 1e-12
            assert (graph.weights == graph.weights.T).all()


def _dominant_eigenvector(weights: np.ndarray, damping: float) -> np.ndarray:
    n = weights.shape[0]
    row_sums = weights.sum(axis=1, keepdims=True)
    transition = np.where(row_sums > 0, weights / np.where(row_sums == 0, 1.0, row_sums), 1.0 / n)
    chain = damping * transition.T + (1.0 - damping) / n * np.ones((n, n))
    values, vectors = np.linalg.eig(chain)
    vector = vectors[:, np.argmax(values.real)].real
    return vector / vector.sum()


def _random_graph(rng: np.random.Generator) -> SimilarityGraph:
    n = int(rng.integers(1, 13))
    raw = rng.random((n, n))
    weights = (raw + raw.T) / 2
    np.fill_diagonal(weights, 1.0)
    threshold = float(rng.choice([0.0, 0.1, 0.3]))
    weights[weights < threshold] = 0.0
    return SimilarityGraph(n=n, weights=weights, threshold=threshold)


class TestCentrality:
    def test_singleton(self):
        graph = SimilarityGraph(n=1, weights=np.ones((1, 1)), threshold=0.1)
        result = centrality(graph)
        assert result.scores.tolist() == pytest.approx([1.0])
        assert result.converged

    def test_two_identical_sentences(self):
        doc_graph = build_similarity_graph(TokenIndex.build(["signal metric", "signal metric"]))
        result = centrality(doc_graph)
        assert result.scores.tolist() == pytest.approx([0.5, 0.5])

    def test_fifty_random_graphs_match_eigensolver(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            graph = _random_graph(rng)
            result = centrality(graph, tol=1e-12, max_iter=2000)
            oracle = _dominant_eigenvector(graph.weights, 0.85)
            assert np.abs(result.scores - oracle).max() < 1e-6
            assert abs(result.scores.sum() - 1.0) < 1e-9
            assert (result.scores >= 0).all()

    def test_disconnected_graph_uniform(self):
        weights = np.eye(4)
        weights[weights < 0.5] = 0.0
        graph = SimilarityGraph(n=4, weights=weights, threshold=0.5)
        result = centrality(graph)
        assert result.scores.tolist() == pytest.approx([0.25] * 4)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        graph = _random_graph(rng)
        n = graph.n
        perm = rng.permutation(n)
        permuted = SimilarityGraph(n=n, weights=graph.weights[np.ix_(perm, perm)], threshold=graph.threshold)
        base = centrality(graph, tol=1e-12, max_iter=2000).scores
        shuffled = centrality(permuted, tol=1e-12, max_iter=2000).scores
        assert np.abs(shuffled - base[perm]).max() < 1e-9

    def test_damping_validation(self):
        graph = SimilarityGraph(n=1, weights=np.ones((1, 1)), threshold=0.0)
        with pytest.raises(ValueError):
            centrality(graph, damping=1.0)


class TestGraphInvariants:
    def test_diagonal_one_before_threshold(self):
        graph = build_similarity_graph(TokenIndex.build(["aa bb", "cc dd", "the of"]), threshold=0.0)
        assert np.diag(graph.weights).tolist() == pytest.approx([1.0, 1.0, 1.0])

    def test_symmetry_and_threshold(self):
        graph = build_similarity_graph(
            TokenIndex.build(["harbor dredging work", "dredging work spring", "unrelated topic zone"]),
            threshold=0.1,
        )
        assert np.allclose(graph.weights, graph.weights.T)
        off_diag = graph.weights[~np.eye(graph.n, dtype=bool)]
        assert ((off_diag == 0.0) | (off_diag >= 0.1)).all()


class TestLexrankHighlights:
    def test_k_larger_than_n_returns_all_in_order(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd.", "Ee ff."])
        hs = lexrank_highlights(doc, k=30)
        assert [h.source_index for h in hs.items] == [0, 1, 2]
        assert all(h.alignment_score == 1.0 for h in hs.items)
        assert hs.method == "lexrank"

    def test_uniform_tie_break_prefers_early_sentences(self):
        # token-disjoint sentences: uniform centrality, ties resolved by index
        doc = doc_from_sentences(["Aa bb.", "Cc dd.", "Ee ff.", "Gg hh."])
        hs = lexrank_highlights(doc, k=2)
        assert [h.source_index for h in hs.items] == [0, 1]

    def test_heading_heavy_fixture_selects_headers(self):
        # short "headers" repeat the topic tokens of their sections and
        # therefore dominate centrality, like section headers in reports
        sentences = [
            "Harbor dredging program.",
            "The crews began the harbor dredging program with new survey boats and a detailed channel plan.",
            "Harbor dredging funding.",
            "Extra funding for harbor dredging arrived after the county reviewed invoices receipts and several contractor bids.",
            "Unrelated anecdote about a picnic lunch near the lighthouse with seagulls everywhere.",
        ]
        doc = doc_from_sentences(sentences)
        hs = lexrank_highlights(doc, k=2)
        graph = build_similarity_graph(doc.token_index, threshold=0.1)
        scores = centrality(graph).scores
        oracle_top2 = sorted(sorted(range(len(sentences)), key=lambda i: (-scores[i], i))[:2])
        assert [h.source_index for h in hs.items] == oracle_top2
        # both short headers beat every long content sentence
        assert [h.source_index for h in hs.items] == [0, 2]

    def test_output_sorted_and_duplicate_free(self):
        doc = doc_from_sentences(["Aa bb.", "Aa bb.", "Cc dd.", "Ee ff."])
        hs = lexrank_highlights(doc, k=3)
        indices = [h.source_index for h in hs.items]
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))

    def test_k_validation(self):
        doc = doc_from_sentences(["Aa."])
        with pytest.raises(ValueError):
            lexrank_highlights(doc, k=0)

    def test_params_respected(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd."])
        hs = lexrank_highlights(doc, k=1, params=LexRankParams(threshold=0.0, damping=0.5))
        assert len(hs.items) == 1
