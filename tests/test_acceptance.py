"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds; failures
surface as ordinary assertion errors. Criterion 10 (live endpoint smoke)
is opt-in via environment variables and skipped by default.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from higen.attribution import AttributionParams, contextcite_attribute, fit_lasso, lambda_max, logit_scale
from higen.cli import main as cli_main
from higen.lexrank import centrality
from higen.llm_client import GenRequest, LLMClient, MockBackend
from higen.metrics import lcs_length, paired_t_test, rouge_l, student_t_two_sided_p, tokenize
from higen.pipeline import PipelineParams, run_method
from higen.prompts import parse_planned
from higen.report import aggregate

from conftest import DATA_DIR, ScriptedBackend, doc_from_sentences


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_rouge_oracle_equivalence():
    started = time.monotonic()

    def recursive_lcs(a, b):
        @lru_cache(maxsize=None)
        def rec(i, j):
            if i == 0 or j == 0:
                return 0
            if a[i - 1] == b[j - 1]:
                return rec(i - 1, j - 1) + 1
            return max(rec(i - 1, j), rec(i, j - 1))

        return rec(len(a), len(b))

    rng = random.Random(8601)
    words = ["ash", "bay", "cedar", "date", "elm", "fig"]
    for _ in range(200):
        a = tuple(rng.choice(words) for _ in range(rng.randint(0, 30)))
        b = tuple(rng.choice(words) for _ in range(rng.randint(0, 30)))
        assert lcs_length(list(a), list(b)) == recursive_lcs(a, b)
        cand, ref = " ".join(a), " ".join(b)
        score = rouge_l(cand, ref)
        ct, rt = tokenize(cand), tokenize(ref)
        if not ct or not rt:
            assert score.f1 == 0.0
        else:
            lcs = recursive_lcs(tuple(ct), tuple(rt))
            p, r = lcs / len(ct), lcs / len(rt)
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert abs(score.f1 - expected) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passed(1, f"200 random pairs match the recursive LCS oracle and ROUGE-L formula ({elapsed:.2f}s)")


def test_criterion_2_lexrank_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        raw = rng.random((n, n))
        weights = (raw + raw.T) / 2
        np.fill_diagonal(weights, 1.0)
        threshold = float(rng.choice([0.0, 0.1, 0.3]))
        weights[weights < threshold] = 0.0
        result = centrality(weights, tol=1e-12, max_iter=2000)

        row_sums = weights.sum(axis=1, keepdims=True)
        transition = np.where(row_sums > 0, weights / np.where(row_sums == 0, 1.0, row_sums), 1.0 / n)
        chain = 0.85 * transition.T + 0.15 / n * np.ones((n, n))
        values, vectors = np.linalg.eig(chain)
        oracle = vectors[:, np.argmax(values.real)].real
        oracle = oracle / oracle.sum()

        assert np.abs(result.scores - oracle).max() < 1e-6
        assert abs(result.scores.sum() - 1.0) < 1e-9
        assert (result.scores >= 0).all()
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(2, f"50 random graphs match the dense eigenvector oracle within 1e-6 ({elapsed:.2f}s)")


def test_criterion_3_lasso_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(77)

    # KKT residuals on 50 random instances
    for _ in range(50):
        m = int(rng.integers(8, 65))
        n = int(rng.integers(1, 9))
        X = (rng.random((m, n)) < 0.5).astype(float)
        y = rng.normal(size=m)
        lam = float(rng.random()) * lambda_max(X, y)
        w, b, *_ = fit_lasso(X, y, lam)
        gradient = -(X.T @ (y - b - X @ w)) / m
        for j in range(n):
            if w[j] == 0.0:
                assert abs(gradient[j]) <= lam + 1e-6
            else:
                assert abs(gradient[j] + lam * np.sign(w[j])) <= 1e-6

    # full shrinkage at lambda >= lambda_max
    X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    y = np.array([0.5, 2.0, 0.0, 2.5])
    for factor in (1.0, 2.0, 10.0):
        w, b, *_ = fit_lasso(X, y, factor * lambda_max(X, y))
        assert np.abs(w).max() == 0.0
        assert abs(b - y.mean()) < 1e-12

    # lambda = 0 on full-rank instances matches the normal equations
    for _ in range(10):
        while True:
            m = int(rng.integers(16, 65))
            n = int(rng.integers(1, 9))
            X = (rng.random((m, n)) < 0.5).astype(float)
            augmented = np.column_stack([np.ones(m), X])
            if np.linalg.matrix_rank(augmented) == n + 1:
                break
        y = rng.normal(size=m)
        w, b, *_ = fit_lasso(X, y, 0.0)
        theta, *_ = np.linalg.lstsq(np.column_stack([np.ones(m), X]), y, rcond=None)
        assert abs(b - theta[0]) < 1e-8
        assert np.abs(w - theta[1:]).max() < 1e-8

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(3, f"KKT residuals <= 1e-6, full shrinkage, and normal-equation agreement ({elapsed:.2f}s)")


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


def test_criterion_4_contextcite_recovery(tmp_path):
    started = time.monotonic()
    doc = doc_from_sentences(_SYNTH_SENTENCES)
    true_w = np.zeros(12)
    true_w[1], true_w[4], true_w[6] = 3.0, 1.0, -2.0

    for seed in range(10):
        noise_rng = np.random.default_rng(1_000_000 + seed)
        noise_for: dict[tuple[int, ...], float] = {}

        def scorer(context: str, continuation: str) -> float:
            bits = tuple(1 if s.text in context else 0 for s in doc.sentences)
            if bits not in noise_for:
                noise_for[bits] = float(noise_rng.normal(0.0, 0.01))
            logit = float(np.dot(true_w, bits)) + noise_for[bits]
            return -math.log1p(math.exp(-logit))

        client = LLMClient(MockBackend(score_fn=scorer), cache_dir=tmp_path / f"cache{seed}")
        result = contextcite_attribute(
            client, doc, "the response", "m",
            AttributionParams(m=96, keep_prob=0.5, lambda_frac=0.01), seed=seed,
        )
        recovered = np.array(result.scores)
        corr = float(np.corrcoef(recovered, true_w)[0, 1])
        assert corr > 0.99, f"seed {seed}: correlation {corr:.4f}"
        top3 = set(np.argsort(-np.abs(recovered))[:3].tolist())
        assert top3 == {1, 4, 6}, f"seed {seed}: top-3 {sorted(top3)}"

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(4, f"weight correlation > 0.99 and exact top-3 across 10 seeds ({elapsed:.2f}s)")


def test_criterion_5_logit_scaling_precision():
    rng = np.random.default_rng(1618)
    mp.mp.dps = 50
    values = -np.exp(rng.uniform(math.log(1e-6), math.log(50.0), size=1000))
    worst = 0.0
    for L in values:
        p = mp.e ** mp.mpf(float(L))
        expected = float(mp.log(p) - mp.log(1 - p))
        got = logit_scale(float(L))
        worst = max(worst, abs(got - expected) / abs(expected))
    assert worst <= 1e-10
    _passed(5, f"1000 logit scalings within 1e-10 relative of the 50-digit oracle (worst {worst:.2e})")


def test_criterion_6_paired_t_test_and_incomplete_beta():
    # derived fixture: t = 2.262, df = 9
    n = 10
    base = list(range(n))
    mean = sum(base) / n
    sd = math.sqrt(sum((x - mean) ** 2 for x in base) / (n - 1))
    d = [2.262 / math.sqrt(n) + (x - mean) / sd for x in base]
    result = paired_t_test(d, [0.0] * n)
    assert result.df == 9
    assert abs(result.t - 2.262) < 1e-12
    assert abs(result.p - 0.0500) <= 5e-4

    mp.mp.dps = 30
    worst = 0.0
    for t in [-10.0, -7.5, -5.0, -2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0]:
        for df in [1, 2, 3, 5, 9, 13, 21, 34, 45, 60]:
            tv, v = mp.mpf(abs(t)), mp.mpf(df)
            coefficient = mp.gamma((v + 1) / 2) / (mp.sqrt(v * mp.pi) * mp.gamma(v / 2))
            oracle = float(2 * mp.quad(lambda s: coefficient * (1 + s * s / v) ** (-(v + 1) / 2), [tv, mp.inf]))
            worst = max(worst, abs(student_t_two_sided_p(t, df) - oracle))
    assert worst <= 1e-6
    _passed(6, f"t-fixture p = 0.0500 +/- 5e-4 and beta grid within 1e-6 (worst {worst:.2e})")


def test_criterion_7_parser_robustness(tmp_path):
    rng = random.Random(314159)
    words = ["delta", "omega", "harbor", "signal", "metric", "panel", "quartz", "union"]
    for _ in range(100):
        items = []
        for _ in range(rng.randint(1, 40)):
            items.append(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))))
        summary = "\n".join(
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 8)))
            for _ in range(rng.randint(1, 3))
        )
        number = 0
        lines = ["Key Sentences:"]
        for item in items:
            number += rng.randint(1, 3)
            lines.append(f"{' ' * rng.randint(0, 3)}{number}{rng.choice(['.', ')'])} {item}")
            if rng.random() < 0.2:
                lines.append("")
        lines.append(f"Summary: {summary}")
        planned = parse_planned("\n".join(lines))
        assert list(planned.highlights) == items
        assert planned.summary == summary

    # the no-"Summary:" case triggers exactly one retry then a failed record
    backend = ScriptedBackend(["no marker", "again no marker"])
    client = LLMClient(backend, cache_dir=tmp_path / "cache")
    doc = doc_from_sentences(["Alpha one.", "Beta two."])
    record = run_method(client, doc, "direct", PipelineParams(model="m", k=2, max_tokens=64))
    assert not record.ok
    gen_requests = [r for r in backend.requests if isinstance(r, GenRequest)]
    assert len(gen_requests) == 2
    _passed(7, "100 randomized scaffolds round-trip exactly; missing marker -> one retry then failed record")


def test_criterion_8_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    run_dir = tmp_path / "run"
    config = {
        "dataset": {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport"},
        "methods": ["direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc"],
        "model": "mock-model",
        "run_dir": str(run_dir),
        "cache_dir": str(tmp_path / "cache"),
        "endpoint": {"base_url": "mock://echo_first_k?scorer=overlap"},
        "k": 3,
        "concurrency": 3,
        "max_tokens": 300,
        "seed": 0,
        "attribution": {"m": 12},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    assert cli_main(["run", "-c", str(config_path)]) == 0
    assert cli_main(["evaluate", "-c", str(config_path)]) == 0
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0

    records = [json.loads(line) for line in (run_dir / "outputs.jsonl").read_text().splitlines()]
    assert len(records) == 50
    assert all(r["error"] is None for r in records)

    outputs_snapshot = sorted((run_dir / "outputs.jsonl").read_text().splitlines())
    metrics_snapshot = (run_dir / "metrics.jsonl").read_bytes()
    report_snapshot = (run_dir / "report.md").read_bytes()

    # second run resumes: zero backend calls, artifacts unchanged
    assert cli_main(["run", "-c", str(config_path)]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["llm_calls"] == 0
    assert cli_main(["evaluate", "-c", str(config_path)]) == 0
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0

    assert sorted((run_dir / "outputs.jsonl").read_text().splitlines()) == outputs_snapshot
    assert (run_dir / "metrics.jsonl").read_bytes() == metrics_snapshot
    assert (run_dir / "report.md").read_bytes() == report_snapshot

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _passed(8, f"50 ok records, zero calls on rerun, byte-identical artifacts after re-sort ({elapsed:.2f}s)")


def test_criterion_9_report_semantics():
    n = 10
    base = list(range(n))
    mean = sum(base) / n
    sd = math.sqrt(sum((x - mean) ** 2 for x in base) / (n - 1))

    def fixture_values(t_target):
        d = [t_target / math.sqrt(n) + (x - mean) / sd for x in base]
        best = [1.0 + x for x in d]
        runner_up = [1.0] * n
        return best, runner_up

    def rows_for(metric, best, runner_up):
        rows = []
        for i, (x, y) in enumerate(zip(best, runner_up)):
            rows.append({"doc_id": f"doc{i:02d}", "method": "winner", "metric": metric, "value": x})
            rows.append({"doc_id": f"doc{i:02d}", "method": "runner", "metric": metric, "value": y})
        return rows

    # equality edge: t = 2.262 -> p = 0.05001... -> strictly-less rule gives no star
    best, runner_up = fixture_values(2.262)
    table = aggregate(rows_for("rouge_l", best, runner_up), ["winner", "runner"])
    assert table.cells[("winner", "rouge_l")].is_best
    assert not table.cells[("runner", "rouge_l")].is_sig_next_best

    # clearly significant: t = 3.0 -> star on the runner-up only
    best, runner_up = fixture_values(3.0)
    table = aggregate(rows_for("rouge_l", best, runner_up), ["winner", "runner"])
    assert table.cells[("winner", "rouge_l")].is_best
    assert table.cells[("runner", "rouge_l")].is_sig_next_best
    assert not table.cells[("winner", "rouge_l")].is_sig_next_best

    # star follows the paired test as computed by the metrics module
    assert paired_t_test(best, runner_up).p < 0.05
    _passed(9, "bold on best, star only when p < 0.05 strictly (no star at the 0.0500 edge)")


@pytest.mark.skipif(
    not os.environ.get("HIGEN_SMOKE_BASE"),
    reason="live smoke is opt-in: set HIGEN_SMOKE_BASE (and HIGEN_SMOKE_MODEL) to a served endpoint",
)
def test_criterion_10_optional_live_smoke(tmp_path):
    run_dir = tmp_path / "live_run"
    config = {
        "dataset": {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 5},
        "methods": ["two_stage_lexrank"],
        "model": os.environ.get("HIGEN_SMOKE_MODEL", "default"),
        "run_dir": str(run_dir),
        "cache_dir": str(tmp_path / "cache"),
        "endpoint": {"base_url": os.environ["HIGEN_SMOKE_BASE"]},
        "k": 30,
        "concurrency": 2,
    }
    config_path = tmp_path / "live.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["run", "-c", str(config_path)]) == 0
    records = [json.loads(line) for line in (run_dir / "outputs.jsonl").read_text().splitlines()]
    assert len(records) == 5
    assert all(r["error"] is None for r in records)
    from higen.corpus import load_dataset

    docs = {d.id: d for d in load_dataset(DATA_DIR / "minicorpus.jsonl", "scrolls_govreport", limit=5)}
    for record in records:
        n = len(docs[record["doc_id"]].sentences)
        assert len(record["highlights"]["items"]) == min(30, n)
    _passed(10, "live endpoint: 5 ok records with full key-point plans")
