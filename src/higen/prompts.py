"""Prompt template rendering and structured-output parsing.

Templates live as resource files with named placeholders; model outputs
follow a fixed scaffold ("Key Sentences:" numbered list, then "Summary:")
that is parsed back with a line-oriented grammar. Templates are read from
disk once per process.

Generated highlight texts are aligned to source sentences by token-level F1
over the document's token index. For one text, the clipped overlap with every
sentence, c[s] = sum over terms t of min(count_text(t), count_s(t)), is one
bincount over the postings of the text's terms (built once per document, by
its token index); then p = c / len(text), r = c / len(s) and
F1 = 2pr / (p + r), vectorized over the sentences.
"""

from __future__ import annotations

import re
from collections import Counter
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


def align(document: Document, texts: list[str], threshold: float = 0.6) -> list[Highlight]:
    """Match each text to the source sentence maximizing token-level F1.

    The source index is recorded only when the best F1 reaches the threshold;
    the score is kept either way. Ties go to the smaller sentence index.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    index = document.token_index
    sentence, count, postings = index.postings
    out: list[Highlight] = []
    for text in texts:
        tokens = tokenize(text)
        wanted = [(index.vocab[t], c) for t, c in Counter(tokens).items() if t in index.vocab]
        best_score, best_index = 0.0, None
        if wanted:
            terms, caps = np.array(wanted).T
            hits = np.concatenate([np.arange(postings[t], postings[t + 1]) for t in terms])
            clipped = np.minimum(count[hits], np.repeat(caps, postings[terms + 1] - postings[terms]))
            overlap = np.bincount(sentence[hits], weights=clipped, minlength=len(index.lengths))
            matched = np.flatnonzero(overlap)
            precision = overlap[matched] / len(tokens)
            recall = overlap[matched] / index.lengths[matched]
            f1 = 2 * precision * recall / (precision + recall)
            best = int(np.argmax(f1))
            best_score, best_index = float(f1[best]), int(matched[best])
        source_index = best_index if best_score >= threshold else None
        out.append(Highlight(text=text, source_index=source_index, alignment_score=best_score))
    return out
