"""Native evaluation metrics and significance testing.

ROUGE-L (via bit-parallel LCS), token-length statistics, and the paired
t-test (via the closed-form Student-t tail for integer degrees of freedom,
Abramowitz & Stegun 26.7.3-26.7.4) are computed in-process.
FactScore-style factual consistency runs against a judge model through the
shared client. Neural metrics computed out-of-band are joined through a JSONL
adapter.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .corpus import TOKEN_RE, Document, read_jsonl, tokenize
from .errors import DatasetError, HigenError, ParseError, is_number, require
from .llm_client import GenRequest, LLMClient
from .prompts import fill, load_template, numbered_items

_ANSWER_RE = re.compile(r"^\s*answer\s*:\s*(yes|no)\b", re.IGNORECASE | re.MULTILINE)

# Judge documents are split into overlapping windows of this many tokens.
VERIFY_CHUNK_TOKENS = 6000
VERIFY_CHUNK_OVERLAP = 500

SUPPORTED = "supported"
UNSUPPORTED = "unsupported"
UNPARSEABLE = "unparseable"


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class FactReport:
    """Verdicts and the supported fraction; ``failed_step`` names the judge
    step ("extraction" or "verification") whose call raised, if one did."""

    facts: tuple[tuple[str, str], ...]
    score: float | None
    failed_step: str | None = None


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


def summary_tokens(text: str) -> int:
    return len(tokenize(text))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by the bit-parallel recurrence of
    Allison & Dix (1986) and Hyyro (2004): bit i of the Python int ``v`` is
    position i of the longer sequence, each item of the shorter one updates
    all positions at once, and the zero bits of ``v`` count the LCS."""
    if len(a) < len(b):
        a, b = b, a
    positions: dict[str, int] = {}
    for i, item in enumerate(a):
        positions[item] = positions.get(item, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for item in b:
        u = v & positions.get(item, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> RougeScore:
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0)
    lcs = lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0:
        return RougeScore(0.0, 0.0, 0.0)
    f1 = 2 * precision * recall / (precision + recall)
    return RougeScore(precision, recall, f1)


# -- factual consistency -----------------------------------------------------


def extract_facts(summary: str, client: LLMClient, judge_model: str) -> list[str]:
    """Ask the judge to decompose a summary into atomic facts (numbered list)."""
    if not summary.strip():
        return []
    prompt = fill(load_template("judge_extract_facts"), {"summary": summary})
    response = client.generate(GenRequest(model=judge_model, user_prompt=prompt, max_tokens=1024))
    facts = numbered_items(response.text)
    if not facts:
        raise ParseError("judge returned no parseable facts")
    return facts


def _chunk_text(text: str) -> list[str]:
    """Overlapping judge windows of ``text``, sized by the module constants as
    they are at call time."""
    spans = [m.span() for m in TOKEN_RE.finditer(text.lower())]
    if len(spans) <= VERIFY_CHUNK_TOKENS:
        return [text]
    # Windows start every (tokens - overlap) tokens; the last is the first
    # that reaches the final token.
    return [
        text[spans[start][0] : spans[min(start + VERIFY_CHUNK_TOKENS, len(spans)) - 1][1]]
        for start in range(0, len(spans) - VERIFY_CHUNK_OVERLAP, VERIFY_CHUNK_TOKENS - VERIFY_CHUNK_OVERLAP)
    ]


def _verify_in_chunks(statement: str, chunks: list[str], client: LLMClient, judge_model: str) -> str:
    """Verdict for one statement: supported once any of ``chunks`` supports it."""
    template = load_template("judge_verify_fact")
    saw_no = False
    for chunk in chunks:
        prompt = fill(template, {"document": chunk, "statement": statement})
        response = client.generate(GenRequest(model=judge_model, user_prompt=prompt, max_tokens=16))
        matches = list(_ANSWER_RE.finditer(response.text))
        if not matches:
            continue
        if matches[-1].group(1).lower() == "yes":
            return SUPPORTED
        saw_no = True
    return UNSUPPORTED if saw_no else UNPARSEABLE


def factscore(summary: str, document: Document, client: LLMClient, judge_model: str) -> FactReport:
    """The report of one summary: ``factscores`` of one item on one worker, so
    its judge calls go out one at a time, in order. Bench-only: nothing in
    ``higen`` calls it, and ``bench/layers.py`` patches it."""
    return factscores([(summary, document)], client, judge_model, workers=1)[0]


def factscores(
    items: Sequence[tuple[str, Document]], client: LLMClient, judge_model: str, workers: int
) -> list[FactReport]:
    """The report of each (summary, document) item, in order: the fraction of
    the summary's atomic facts that the document supports; unparseable
    verdicts are excluded from the denominator.

    The judge calls run on ``workers`` threads in two flat phases: the facts
    of every distinct summary, then the verdict of every distinct (document
    id, statement) pair, window by window until one supports it. A summary or
    a fact that several items share is judged once. A judge call that fails
    (retries exhausted, an endpoint error, an oversize prompt) leaves the
    score of every item that needs it absent and names the failed step; any
    other exception propagates."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        summaries = list(dict.fromkeys(summary for summary, _ in items))
        facts_of = dict(
            zip(summaries, pool.map(lambda summary: _judged(extract_facts, summary, client, judge_model), summaries))
        )
        chunks: dict[str, list[str]] = {}
        pairs: dict[tuple[str, str], None] = {}
        for summary, document in items:
            statements = facts_of[summary]
            if isinstance(statements, HigenError):
                continue
            if document.id not in chunks:
                chunks[document.id] = _chunk_text(document.normalized_text)
            pairs.update(dict.fromkeys((document.id, statement) for statement in statements))

        def verify(pair: tuple[str, str]) -> str | HigenError:
            doc_id, statement = pair
            return _judged(_verify_in_chunks, statement, chunks[doc_id], client, judge_model)

        verdicts = dict(zip(pairs, pool.map(verify, pairs)))
    return [_report(facts_of[summary], document.id, verdicts) for summary, document in items]


def _judged(call: Callable, *args):
    """``call(*args)``, or the HigenError it raised."""
    try:
        return call(*args)
    except HigenError as exc:
        return exc


def _report(
    statements: list[str] | HigenError, doc_id: str, verdicts: dict[tuple[str, str], str | HigenError]
) -> FactReport:
    if isinstance(statements, HigenError):
        return FactReport(facts=(), score=None, failed_step="extraction")
    facts = [(statement, verdicts[doc_id, statement]) for statement in statements]
    if any(isinstance(verdict, HigenError) for _, verdict in facts):
        return FactReport(facts=(), score=None, failed_step="verification")
    supported = sum(1 for _, v in facts if v == SUPPORTED)
    unsupported = sum(1 for _, v in facts if v == UNSUPPORTED)
    denominator = supported + unsupported
    score = supported / denominator if denominator else None
    return FactReport(facts=tuple(facts), score=score)


# -- paired t-test ------------------------------------------------------------


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value 1 - A(t | df) of Student's t with integer ``df``, by
    the finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even
    df) in theta = atan(|t| / sqrt(df)): no iteration, so nothing to converge."""
    require("df", df, lambda d: is_number(d, int) and d >= 1, "an integer >= 1")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    theta = math.atan(abs(t) / math.sqrt(df))
    cos = math.cos(theta)
    # The terms cos^e(theta) for e = df mod 2, +2, ..., df - 2, each the last
    # times (e + 1) / (e + 2) cos^2(theta).
    total, term = 0.0, cos ** (df % 2)
    for e in range(df % 2, df - 1, 2):
        total += term
        term *= (e + 1) / (e + 2) * cos * cos
    a = math.sin(theta) * total
    if df % 2:
        a = 2 / math.pi * (theta + a)
    return min(max(1.0 - a, 0.0), 1.0)


def paired_t_test(a: list[float], b: list[float]) -> TTestResult:
    """Two-sided paired t-test on elementwise differences a - b.

    Zero-variance differences use the documented convention: p = 1 when the
    mean difference is 0, p = 0 otherwise.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test requires n >= 2")
    d = [x - y for x, y in zip(a, b)]
    mean = math.fsum(d) / n
    var = math.fsum((x - mean) ** 2 for x in d) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), df=df, p=0.0)
    t = mean * math.sqrt(n) / math.sqrt(var)
    return TTestResult(t=t, df=df, p=student_t_two_sided_p(t, df))


# -- external score adapter ----------------------------------------------------


def load_external_scores(path: str | Path, metric_name: str) -> dict[str, float]:
    """Read {"doc_id": ..., "score": ...} JSONL rows into a doc_id -> score map;
    a score must be a finite number, not a bool or a numeric string."""
    scores: dict[str, float] = {}
    for lineno, obj in read_jsonl(path):
        if "doc_id" not in obj or "score" not in obj:
            raise DatasetError(f"{path}:{lineno}: external score rows need doc_id and score")
        doc_id = str(obj["doc_id"])
        if doc_id in scores:
            raise DatasetError(f"{path}:{lineno}: duplicate doc_id {doc_id!r} in {metric_name} scores")
        try:
            if not is_number(obj["score"]):
                raise ValueError
            scores[doc_id] = float(obj["score"])  # an int past the float range overflows
        except (OverflowError, ValueError):
            raise DatasetError(f"{path}:{lineno}: {metric_name} score {obj['score']!r} is not a number") from None
    return scores
