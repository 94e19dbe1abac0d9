"""Prompt template rendering and structured-output parsing.

Templates live as resource files with named placeholders; model outputs
follow a fixed scaffold ("Key Sentences:" numbered list, then "Summary:")
that is parsed back with a line-oriented grammar. Templates are read from
disk once per process.

Generated highlight texts are aligned to source sentences by token-level F1
over the document's token index. One call counts, for all of its texts at
once, the clipped overlap c[x, s] = sum over terms t of
min(count_x(t), count_s(t)) of every text x with every sentence s: the
postings of each (text, term) pair (built once per document, by its token
index) are gathered into one array and summed by one bincount over
x * sentences + s. Then p = c / len(x), r = c / len(s) and F1 = 2pr / (p + r)
over the non-zero cells, and each row's first maximum is its best sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .corpus import Document, tokenize
from .errors import ParseError, RenderError

_TEMPLATE_DIR = Path(__file__).parent / "resources" / "templates"

# Only these names are placeholders, in the summarization and judge templates;
# any other {...} in a body is literal text shown to the model (e.g. the
# "{Sentence Text}" slots of the scaffold).
_PLACEHOLDER_NAMES = ("document", "k", "query", "highlights", "summary", "statement")
_PLACEHOLDER_RE = re.compile(r"\{(" + "|".join(_PLACEHOLDER_NAMES) + r")\}")

_ITEM_RE = re.compile(r"^\s*\d+[.)]\s+(.*)$")
_SUMMARY_MARKER_RE = re.compile(r"^[ \t]*[#*>`\"'\-]*[ \t]*summary[ \t]*:", re.IGNORECASE | re.MULTILINE)
_KEY_MARKER_RE = re.compile(r"^[ \t]*[#*>`\"'\-]*[ \t]*key sentences[ \t]*:", re.IGNORECASE | re.MULTILINE)
_THINK_RE = re.compile(r"\A\s*<think>.*?</think>", re.IGNORECASE | re.DOTALL)

# Appended once when a completion lacks the required scaffold.
FORMAT_REMINDER = (
    'Reminder: you must answer in the required structured format and include the literal '
    'marker "Summary:" followed by your generated summary.'
)


@dataclass(frozen=True)
class Highlight:
    """One content-plan item, optionally traced back to a source sentence."""

    text: str
    source_index: int | None = None
    alignment_score: float = 0.0


@dataclass(frozen=True)
class HighlightSet:
    """An ordered content plan of at most k_requested highlights."""

    method: str
    k_requested: int
    items: tuple[Highlight, ...]


@dataclass(frozen=True)
class PlannedOutput:
    highlights: tuple[str, ...]
    summary: str


def ranked_highlights(method: str, document: Document, scores: np.ndarray | list[float], k: int) -> HighlightSet:
    """The k sentences of highest strictly positive score (ties to the smaller
    index), in document order, as extracted highlights."""
    if k < 1:
        raise ValueError("k must be >= 1")
    positives = [i for i, score in enumerate(scores) if score > 0]
    chosen = sorted(sorted(positives, key=lambda i: (-scores[i], i))[:k])
    items = tuple(Highlight(text=document.sentences[i].text, source_index=i, alignment_score=1.0) for i in chosen)
    return HighlightSet(method=method, k_requested=k, items=items)


@cache
def load_template(template_id: str) -> str:
    """The body of ``resources/templates/<template_id>.txt``; the id must be
    a Python identifier, so it names a file in that directory only."""
    path = _TEMPLATE_DIR / f"{template_id}.txt"
    if not template_id.isidentifier() or not path.is_file():
        raise RenderError(f"unknown template id: {template_id!r}")
    return path.read_text(encoding="utf-8")


def format_highlights(highlights: list[Highlight] | tuple[Highlight, ...]) -> str:
    return "\n".join(f"{i + 1}. {h.text}" for i, h in enumerate(highlights))


def render(
    template_id: str,
    document: Document,
    k: int | None = None,
    highlights: list[Highlight] | tuple[Highlight, ...] | None = None,
) -> str:
    """Fill a template with the document and, where required, k and the highlights."""
    body = load_template(template_id)
    values: dict[str, str] = {"document": document.normalized_text}
    if k is not None:
        values["k"] = str(int(k))
    if document.query is not None:
        values["query"] = document.query
    if highlights is not None:
        values["highlights"] = format_highlights(highlights)

    try:
        return fill(body, values).rstrip("\n")
    except RenderError as exc:
        raise RenderError(f"template {template_id!r}: {exc}") from None


def fill(body: str, values: dict[str, str]) -> str:
    """Substitute every placeholder of body in one pass, so a value that itself
    contains "{document}" or another placeholder stays literal. Raises
    RenderError naming the placeholders that have no value."""
    missing = sorted({name for name in _PLACEHOLDER_RE.findall(body) if name not in values})
    if missing:
        raise RenderError(f"missing placeholder value(s): {missing}")
    return _PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], body)


def numbered_items(text: str) -> list[str]:
    """The non-empty items of the numbered lines ("1. ...", "2) ...") of text, in order."""
    matches = (_ITEM_RE.match(line) for line in text.splitlines())
    return [match.group(1).strip() for match in matches if match and match.group(1).strip()]


def _strip_think_block(raw: str) -> str:
    return _THINK_RE.sub("", raw, count=1)


def parse_highlights(raw: str) -> list[str]:
    """Numbered items between the "Key Sentences:" marker and the "Summary:"
    marker (or end of text). Numbering gaps are tolerated; order is preserved."""
    text = _strip_think_block(raw)
    key = _KEY_MARKER_RE.search(text)
    start = key.end() if key else 0
    summary = _SUMMARY_MARKER_RE.search(text, start)
    end = summary.start() if summary else len(text)
    return numbered_items(text[start:end])


def parse_planned(raw: str) -> PlannedOutput:
    """Split a structured completion into its highlight list and summary.

    The summary is everything after the last "Summary:" marker at a line
    start (leading markdown symbols tolerated); a leading think-tag block is
    stripped before parsing.
    """
    text = _strip_think_block(raw)
    matches = list(_SUMMARY_MARKER_RE.finditer(text))
    if not matches:
        raise ParseError('no "Summary:" marker found in model output')
    marker = matches[-1]
    tail = text[marker.end() :]
    # a stray scaffold block after the summary is never part of the summary
    stray = _KEY_MARKER_RE.search(tail)
    if stray:
        tail = tail[: stray.start()]
    summary = tail.strip()
    if not summary:
        raise ParseError('empty summary after "Summary:" marker')

    highlights: list[str] = []
    key = _KEY_MARKER_RE.search(text)
    if key and key.start() < marker.start():
        highlights = numbered_items(text[key.end() : marker.start()])
    return PlannedOutput(highlights=tuple(highlights), summary=summary)


ALIGN_THRESHOLD = 0.6


def align(document: Document, texts: list[str]) -> list[Highlight]:
    """Match each text to the source sentence maximizing token-level F1.

    The source index is recorded only when the best F1 reaches ALIGN_THRESHOLD;
    the score is kept either way. Ties go to the smaller sentence index.
    """
    index = document.token_index
    n_sentences, n_terms = len(index.lengths), len(index.vocab)
    if not n_sentences:
        return [Highlight(text=text) for text in texts]
    sentence, count, bounds = index.postings
    tokens = [tokenize(text) for text in texts]
    text_lengths = np.array([len(t) for t in tokens], dtype=np.int64)
    ids = np.array([index.vocab.get(token, -1) for found in tokens for token in found], dtype=np.int64)
    owner = np.repeat(np.arange(len(texts)), text_lengths)
    known = ids >= 0
    # Each (text, term) pair once, with the term's count in the text.
    pairs, caps = np.unique(owner[known] * n_terms + ids[known], return_counts=True)
    row, term = np.divmod(pairs, n_terms)
    # The postings of every pair as one run of indices: pair j's df[j]
    # postings start at bounds[term[j]].
    starts, df = bounds[term], bounds[term + 1] - bounds[term]
    hits = np.arange(df.sum()) + np.repeat(starts - np.cumsum(df) + df, df)
    clipped = np.minimum(count[hits], np.repeat(caps, df))
    cells = np.repeat(row * n_sentences, df) + sentence[hits]
    overlap = np.bincount(cells, weights=clipped, minlength=len(texts) * n_sentences).reshape(len(texts), n_sentences)
    # An empty text or sentence gives 0 / 0 in its row or column; only
    # cells with a shared token are scored.
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = overlap / text_lengths[:, None]
        recall = overlap / index.lengths
        f1 = np.where(overlap > 0, 2 * precision * recall / (precision + recall), 0.0)
    best = f1.argmax(axis=1)
    scores = f1[np.arange(len(texts)), best]
    return [
        Highlight(text=text, source_index=i if score >= ALIGN_THRESHOLD else None, alignment_score=score)
        for text, i, score in zip(texts, best.tolist(), scores.tolist())
    ]
