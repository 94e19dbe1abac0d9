"""Native evaluation metrics and significance testing.

ROUGE-L (via bit-parallel LCS), token-length statistics, and the paired
t-test (via a native regularized incomplete beta) are computed in-process.
FactScore-style factual consistency runs against a judge model through the
shared client. Neural metrics computed out-of-band are joined through a JSONL
adapter.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .corpus import TOKEN_RE, Document, tokenize
from .errors import DatasetError, HigenError, ParseError
from .llm_client import GenRequest, LLMClient
from .prompts import fill, numbered_items

_RESOURCE_DIR = Path(__file__).parent / "resources"

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
    facts: tuple[tuple[str, str], ...]
    score: float | None


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


@cache
def _load_judge_prompt(name: str) -> str:
    return (_RESOURCE_DIR / name).read_text(encoding="utf-8")


def extract_facts(summary: str, client: LLMClient, judge_model: str, max_tokens: int = 1024) -> list[str]:
    """Ask the judge to decompose a summary into atomic facts (numbered list)."""
    if not summary.strip():
        return []
    prompt = fill(_load_judge_prompt("judge_extract_facts.txt"), {"summary": summary})
    response = client.generate(GenRequest(model=judge_model, user_prompt=prompt, max_tokens=max_tokens))
    facts = numbered_items(response.text)
    if not facts:
        raise ParseError("judge returned no parseable facts")
    return facts


def _chunk_text(text: str, chunk_tokens: int = VERIFY_CHUNK_TOKENS, overlap: int = VERIFY_CHUNK_OVERLAP) -> list[str]:
    spans = [m.span() for m in TOKEN_RE.finditer(text.lower())]
    if len(spans) <= chunk_tokens:
        return [text]
    chunks = []
    step = chunk_tokens - overlap
    start_tok = 0
    while start_tok < len(spans):
        end_tok = min(start_tok + chunk_tokens, len(spans))
        chunks.append(text[spans[start_tok][0] : spans[end_tok - 1][1]])
        if end_tok == len(spans):
            break
        start_tok += step
    return chunks


def verify_fact(statement: str, document: Document, client: LLMClient, judge_model: str) -> str:
    """Verdict for one statement: supported once any document chunk supports it."""
    template = _load_judge_prompt("judge_verify_fact.txt")
    saw_no = False
    for chunk in _chunk_text(document.normalized_text, VERIFY_CHUNK_TOKENS, VERIFY_CHUNK_OVERLAP):
        prompt = fill(template, {"document": chunk, "statement": statement})
        response = client.generate(
            GenRequest(model=judge_model, user_prompt=prompt, max_tokens=16), doc_id=document.id
        )
        matches = list(_ANSWER_RE.finditer(response.text))
        if not matches:
            continue
        if matches[-1].group(1).lower() == "yes":
            return SUPPORTED
        saw_no = True
    return UNSUPPORTED if saw_no else UNPARSEABLE


def factscore(summary: str, document: Document, client: LLMClient, judge_model: str) -> FactReport:
    """Fraction of atomic facts supported by the document; unparseable verdicts
    are excluded from the denominator."""
    try:
        statements = extract_facts(summary, client, judge_model)
    except HigenError:
        return FactReport(facts=(), score=None)
    facts = []
    for statement in statements:
        facts.append((statement, verify_fact(statement, document, client, judge_model)))
    supported = sum(1 for _, v in facts if v == SUPPORTED)
    unsupported = sum(1 for _, v in facts if v == UNSUPPORTED)
    denominator = supported + unsupported
    score = supported / denominator if denominator else None
    return FactReport(facts=tuple(facts), score=score)


# -- paired t-test ------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    max_iter, eps, fpmin = 300, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value from the Student-t CDF via I_{df/(df+t^2)}(df/2, 1/2)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(max(betainc_regularized(df / 2.0, 0.5, x), 0.0), 1.0)


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
    """Read {"doc_id": ..., "score": ...} JSONL rows into a doc_id -> score map."""
    path = Path(path)
    scores: dict[str, float] = {}
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON line in {metric_name} scores: {exc}") from exc
            if "doc_id" not in obj or "score" not in obj:
                raise DatasetError(f"{path}:{lineno}: external score rows need doc_id and score")
            doc_id = str(obj["doc_id"])
            if doc_id in scores:
                raise DatasetError(f"{path}:{lineno}: duplicate doc_id {doc_id!r} in {metric_name} scores")
            scores[doc_id] = float(obj["score"])
    return scores
