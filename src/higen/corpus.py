"""Document ingestion, normalization, sentence segmentation and tokenization.

Documents are normalized once; every sentence records a character span into
the normalized text so downstream consumers (ranking, ablation, prompting)
can address source sentences by index. Each document is segmented, and
tokenized into a token index shared by the lexical kernels, at most once and
only on first use.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError

_RESOURCE_DIR = Path(__file__).parent / "resources"

# Control characters stripped during normalization (newline and tab survive).
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")

# Transcript turn label: "Project Manager: ...", "Grad A: ...".
_SPEAKER_RE = re.compile(r"^([A-Za-z][\w .'\-]{0,63}?)\s*:\s?(.*)$")

# Fence line separating the query prefix from the transcript body.
_DELIMITER_RE = re.compile(r"^={4,}\s*$")

_TERMINALS = ".!?"

TOKEN_RE = re.compile(r"[a-z0-9]+")

SCHEMAS = ("scrolls_govreport", "scrolls_qmsum", "generic_jsonl")

KINDS = ("prose", "transcript")


def _load_word_list(name: str) -> frozenset[str]:
    """The non-blank, non-comment lines of a resource file."""
    lines = (line.strip() for line in (_RESOURCE_DIR / name).read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


ABBREVIATIONS = _load_word_list("abbreviations.txt")
STOPWORDS = _load_word_list("stopwords.txt")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens; punctuation splits and is dropped."""
    return TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Sentence:
    """One source sentence: 0-based index, text, and span into the normalized document."""

    index: int
    text: str
    span: tuple[int, int]
    speaker: str | None = None


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """The tokens of every sentence as int32 ids into one vocabulary.

    Sentence i holds ``ids[offsets[i]:offsets[i + 1]]`` (CSR rows) and
    ``lengths[i]`` tokens; ``stop`` marks the vocabulary ids of stopwords.
    The size is O(tokens), never O(sentences x vocabulary).
    """

    vocab: dict[str, int]
    ids: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    stop: np.ndarray

    @classmethod
    def build(cls, texts: Iterable[str]) -> TokenIndex:
        vocab: dict[str, int] = {}
        ids: list[int] = []
        offsets = [0]
        for text in texts:
            ids.extend(vocab.setdefault(token, len(vocab)) for token in tokenize(text))
            offsets.append(len(ids))
        return cls(
            vocab=vocab,
            ids=np.array(ids, dtype=np.int32),
            offsets=np.array(offsets, dtype=np.int64),
            lengths=np.diff(offsets),
            stop=np.array([token in STOPWORDS for token in vocab], dtype=bool),
        )

    def term_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sentence, term, count) for each distinct term of each sentence,
        ordered by sentence, then by term."""
        size = max(len(self.vocab), 1)
        sentence = np.repeat(np.arange(len(self.lengths)), self.lengths)
        keys, counts = np.unique(sentence * size + self.ids, return_counts=True)
        sentence, term = np.divmod(keys, size)
        return sentence, term, counts


@dataclass
class Document:
    """A normalized document. Its sentences, and every artifact derived from
    them, are computed on first use, so a reader of the text alone (evaluation,
    FactScore chunking) never segments it."""

    id: str
    raw_text: str
    normalized_text: str
    query: str | None = None
    reference_summary: str | None = None
    kind: str = "prose"

    def __post_init__(self) -> None:
        if not self.id:
            raise DatasetError("document id must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown document kind: {self.kind!r}")

    @cached_property
    def sentences(self) -> list[Sentence]:
        """The sentences of the normalized text, segmented on first use."""
        return segment_sentences(self.normalized_text, self.kind)

    @cached_property
    def flags(self) -> tuple[str, ...]:
        return ("short_document",) if len(self.sentences) < 2 else ()

    @cached_property
    def token_index(self) -> TokenIndex:
        """Token index of the sentences, built on first use."""
        return TokenIndex.build(s.text for s in self.sentences)

    @cached_property
    def labelled_sentences(self) -> list[str]:
        """Each sentence's text with its speaker prefix (``"Speaker: text"``)
        when it has one, rendered once on first use."""
        return [f"{s.speaker}: {s.text}" if s.speaker else s.text for s in self.sentences]

    @cached_property
    def escaped_sentences(self) -> list[bytes]:
        """``labelled_sentences`` JSON-escaped (see ``json_escaped``), escaped
        once on first use: joined by spaces they give the escaped form of any
        ablated context, from which its cache key is built."""
        return [json_escaped(text) for text in self.labelled_sentences]


def json_escaped(text: str) -> bytes:
    """The UTF-8 bytes of ``text`` as the inside of a JSON string literal,
    escaped as ``json.dumps(..., ensure_ascii=False)`` escapes it. Escaping
    works character by character and leaves a space as it is, so the escaped
    form of a space-joined text is the space-joined escaped forms."""
    return json.dumps(text, ensure_ascii=False)[1:-1].encode("utf-8")


def normalize_text(raw: str) -> str:
    """Canonicalize newlines and strip control characters other than newline/tab."""
    text = raw.replace("\r\n", "\n").replace("\r", "\n")
    return _CONTROL_RE.sub("", text)


def _is_protected(text: str, dot_pos: int) -> bool:
    """True when the period at dot_pos ends a known abbreviation token."""
    start = dot_pos
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    token = text[start : dot_pos + 1].lstrip("([{\"'")
    return token in ABBREVIATIONS


def _prose_spans(text: str, offset: int = 0) -> list[tuple[int, int]]:
    """Sentence spans for prose: split after a terminal run followed by
    whitespace and an uppercase/digit start, unless an abbreviation protects it."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    i = 0
    while i < n:
        if text[i] in _TERMINALS:
            j = i
            while j + 1 < n and text[j + 1] in _TERMINALS:
                j += 1
            k = j + 1
            if k < n and text[k].isspace():
                t = k
                while t < n and text[t].isspace():
                    t += 1
                next_starts = t < n and (text[t].isupper() or text[t].isdigit())
                protected = i == j and text[i] == "." and _is_protected(text, i)
                if next_starts and not protected:
                    spans.append((start, j + 1))
                    start = t
                    i = t
                    continue
            i = j + 1
        else:
            i += 1
    if start < n:
        spans.append((start, n))
    return [(s + offset, e + offset) for s, e in _trim_spans(text, spans)]


def _trim_spans(text: str, spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for s, e in spans:
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if e > s:
            out.append((s, e))
    return out


def _transcript_turns(text: str) -> list[tuple[str, int, int]]:
    """Split transcript text into (speaker, start, end) turn regions.

    A turn begins at a line matching ``Speaker: utterance`` and extends until
    the next such line. Fence lines are skipped. Text before the first speaker
    line is attributed to the speaker "unknown".
    """
    turns: list[tuple[str, int, int]] = []
    speaker = "unknown"
    region_start: int | None = None
    pos = 0
    for line in text.split("\n"):
        line_start, line_end = pos, pos + len(line)
        pos = line_end + 1
        if _DELIMITER_RE.match(line):
            if region_start is not None:
                turns.append((speaker, region_start, line_start))
                region_start = None
            continue
        match = _SPEAKER_RE.match(line)
        if match:
            if region_start is not None:
                turns.append((speaker, region_start, line_start))
            speaker = match.group(1).strip()
            region_start = line_start + match.start(2)
        elif region_start is None and line.strip():
            region_start = line_start
    if region_start is not None:
        turns.append((speaker, region_start, len(text)))
    return turns


def segment_sentences(text: str, kind: str = "prose") -> list[Sentence]:
    """Segment normalized text into sentences.

    Prose mode splits on sentence-final punctuation protected by the
    abbreviation list; transcript mode first splits on speaker turns and then
    applies the prose rule within each utterance.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown document kind: {kind!r}")
    sentences: list[Sentence] = []
    if kind == "prose":
        for s, e in _prose_spans(text):
            sentences.append(Sentence(len(sentences), text[s:e], (s, e)))
    else:
        for speaker, start, end in _transcript_turns(text):
            for s, e in _prose_spans(text[start:end], offset=start):
                sentences.append(Sentence(len(sentences), text[s:e], (s, e), speaker=speaker))
    return sentences


def make_document(
    doc_id: str,
    raw_text: str,
    kind: str = "prose",
    query: str | None = None,
    reference_summary: str | None = None,
) -> Document:
    """Normalize a document; it is segmented and flagged on first use."""
    return Document(
        id=doc_id,
        raw_text=raw_text,
        normalized_text=normalize_text(raw_text),
        query=query,
        reference_summary=reference_summary,
        kind=kind,
    )


def _split_query_prefix(text: str) -> tuple[str | None, str]:
    """Separate a QMSum-style query prefix from the transcript body."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if _DELIMITER_RE.match(line):
            query = "\n".join(lines[:i]).strip()
            body = "\n".join(lines[i + 1 :])
            return (query or None), body
    return None, text


def _require(obj: dict, name: str, path: str, lineno: int) -> object:
    if name not in obj:
        raise DatasetError(f"{path}:{lineno}: missing required field {name!r}")
    return obj[name]


def load_dataset(
    path: str | Path,
    schema: str,
    limit: int | None = None,
    field_map: dict[str, str] | None = None,
) -> list[Document]:
    """Load a JSONL dataset file into Documents.

    ``scrolls_govreport`` maps {id, input, output} to prose documents;
    ``scrolls_qmsum`` additionally splits the query prefix and marks the
    document as a transcript; ``generic_jsonl`` uses a caller-supplied
    field map {id_field, input_field, output_field, query_field?}.
    """
    if schema not in SCHEMAS:
        raise ConfigError(f"unknown dataset schema: {schema!r}")
    if limit is not None and limit < 0:
        raise ConfigError("dataset limit must be >= 0")
    if schema == "generic_jsonl":
        if not field_map:
            raise ConfigError("generic_jsonl requires a field_map")
        for key in ("id_field", "input_field", "output_field"):
            if key not in field_map:
                raise ConfigError(f"generic_jsonl field_map missing {key!r}")

    path = Path(path)
    docs: list[Document] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if limit is not None and len(docs) >= limit:
                break
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(obj, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object")

            if schema == "scrolls_govreport":
                doc_id = str(_require(obj, "id", str(path), lineno))
                doc = make_document(
                    doc_id,
                    str(_require(obj, "input", str(path), lineno)),
                    kind="prose",
                    reference_summary=str(_require(obj, "output", str(path), lineno)),
                )
            elif schema == "scrolls_qmsum":
                doc_id = str(_require(obj, "id", str(path), lineno))
                raw = str(_require(obj, "input", str(path), lineno))
                query, body = _split_query_prefix(raw)
                doc = make_document(
                    doc_id,
                    body,
                    kind="transcript",
                    query=query,
                    reference_summary=str(_require(obj, "output", str(path), lineno)),
                )
                doc.raw_text = raw
            else:
                assert field_map is not None
                doc_id = str(_require(obj, field_map["id_field"], str(path), lineno))
                query_field = field_map.get("query_field")
                doc = make_document(
                    doc_id,
                    str(_require(obj, field_map["input_field"], str(path), lineno)),
                    kind="prose",
                    query=str(obj[query_field]) if query_field and obj.get(query_field) else None,
                    reference_summary=str(_require(obj, field_map["output_field"], str(path), lineno)),
                )

            if doc.id in seen_ids:
                raise DatasetError(f"{path}:{lineno}: duplicate document id {doc.id!r}")
            seen_ids.add(doc.id)
            docs.append(doc)
    return docs
