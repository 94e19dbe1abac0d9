"""Document ingestion, normalization, sentence segmentation and tokenization.

Every dataset schema is read by one loader: each line is checked for the same
required fields and becomes a Document through ``make_document``. Every JSONL
file the package reads strictly (datasets, metric rows, external scores) goes
through ``read_jsonl``, which names the file and line of a damaged one. Documents
are normalized once; every sentence records a character span into the
normalized text so downstream consumers (ranking, ablation, prompting) can
address source sentences by index. Prose is segmented by one regex over
terminal runs, with an abbreviation list protecting a lone period;
transcripts are first split into speaker turns. Each document is segmented,
and tokenized into a token index shared by the lexical kernels, on first use
and once until ``Document.release`` drops these artifacts.

The text kernels run at C speed on document-length text, with the results of
their plain forms: ASCII text is normalized in one pass over its bytes, and
only text holding a ``\r`` has its newlines rewritten. A document is
segmented in one pass of each regex over one copy of all its regions (the
whole text, or every speaker turn), of the same length and offsets: one scan
of the reversed copy finds every period an abbreviation protects, since a
literal period leads its pattern; the copy maps ``!`` and ``?`` to ``.`` and
those protected periods to ``#``; and the split regex, which admits only an
ASCII uppercase or digit head or a non-ASCII one, then finds nothing but
boundaries, so the spans come straight from its matches. ``tokenize`` splits
one ``bytes.translate`` of the lowercase's UTF-8 bytes, which blanks every
byte but ``[a-z0-9]``, into ``TOKEN_RE``'s tokens. The token index assigns
vocabulary ids through a ``defaultdict`` in one ``map`` per sentence.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, chain, count, islice, pairwise, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DatasetError, is_number

_RESOURCE_DIR = Path(__file__).parent / "resources"

# Control characters stripped during normalization (newline and tab survive),
# and the ASCII ones as bytes, for ``bytes.translate`` to delete.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")
_ASCII_CONTROLS = bytes([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0x7F])

# Transcript turn label: "Project Manager: ...", "Grad A: ...".
_SPEAKER_RE = re.compile(r"^([A-Za-z][\w .'\-]{0,63}?)\s*:\s?(.*)$")

# Fence line separating the query prefix from the transcript body.
_DELIMITER_RE = re.compile(r"^={4,}\s*$")

# A terminal run and the whitespace after it (groups 1 and 2), where an ASCII
# uppercase letter or digit, or a non-ASCII character that is not whitespace,
# follows: a sentence boundary, matched in a copy of the text whose ``!`` and
# ``?`` are periods and whose protected periods are ``#``. ``\s`` matches
# exactly what ``str.isspace`` accepts. The lookbehind lets a match start only
# at the first mark of a run, so a long run that no whitespace follows is
# scanned once, not once per mark; the leading literal keeps the regex's fast
# search for a first character, about five times faster than a scan for a
# character class.
_SPLIT_RE = re.compile(r"(\.(?<!\.\.)\.*)(\s+)(?=[0-9A-Z]|(?!\s)[^\x00-\x7f])")

# The characters stripped off the front of a token before the abbreviation lookup.
_OPENERS = "([{\"'"

TOKEN_RE = re.compile(r"[a-z0-9]+")

# A ``bytes.translate`` table mapping every byte but ``[a-z0-9]`` to a space.
_TOKEN_BYTES = bytes(byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for byte in range(256))

# The keys of a field map: the fields every dataset line must carry, in the
# order they are checked.
FIELD_KEYS = ("id_field", "input_field", "output_field")

# The fixed field map of both SCROLLS schemas; generic_jsonl takes the caller's.
_SCROLLS_FIELDS = {"id_field": "id", "input_field": "input", "output_field": "output"}

SCHEMAS = ("scrolls_govreport", "scrolls_qmsum", "generic_jsonl")

KINDS = ("prose", "transcript")


def _load_word_list(name: str) -> frozenset[str]:
    """The non-blank, non-comment lines of a resource file."""
    lines = (line.strip() for line in (_RESOURCE_DIR / name).read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


ABBREVIATIONS = _load_word_list("abbreviations.txt")
STOPWORDS = _load_word_list("stopwords.txt")


def token_bytes(text: str) -> bytes:
    """The UTF-8 bytes of ``text``'s lowercase with every byte but
    ``[a-z0-9]`` a space, so its whitespace-separated words are the
    ``TOKEN_RE`` tokens of that lowercase: UTF-8 spells every other character
    (a lone surrogate too, through ``surrogatepass``) in bytes above 0x7f. The
    text is lowercased before it is encoded, since a non-ASCII letter may
    lowercase to ASCII (KELVIN SIGN to ``k``)."""
    return text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens, ``TOKEN_RE``'s matches in the
    lowercase; punctuation splits and is dropped."""
    return token_bytes(text).decode().split()


class Sentence(NamedTuple):
    """One source sentence: 0-based index, text, and span into the normalized
    document. A named tuple, which a segmenter builds in half the time of a
    frozen dataclass."""

    index: int
    text: str
    span: tuple[int, int]
    speaker: str | None = None


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """The tokens of every sentence as int32 ids into one vocabulary.

    Sentence i holds the next ``lengths[i]`` ids of ``ids``, in sentence
    order; ``stop`` marks the vocabulary ids of stopwords. The size is
    O(tokens), never O(sentences x vocabulary).
    """

    vocab: dict[str, int]
    ids: np.ndarray
    lengths: np.ndarray
    stop: np.ndarray

    @classmethod
    def build(cls, texts: Iterable[str]) -> TokenIndex:
        # A token not yet in the vocabulary gets the next id on its first lookup.
        vocab: defaultdict[str, int] = defaultdict()
        vocab.default_factory = vocab.__len__
        ids: list[int] = []
        lengths: list[int] = []
        for text in texts:
            tokens = tokenize(text)
            ids.extend(map(vocab.__getitem__, tokens))
            lengths.append(len(tokens))
        return cls(
            vocab=dict(vocab),
            ids=np.array(ids, dtype=np.int32),
            lengths=np.array(lengths, dtype=np.int64),
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

    @cached_property
    def postings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sentence, count, bounds): the ``term_counts`` entries ordered by
        term, those of term t at ``bounds[t]:bounds[t + 1]``. Built on first
        use, so every alignment against one document shares them."""
        sentence, term, count = self.term_counts()
        by_term = np.argsort(term, kind="stable")
        bounds = np.searchsorted(term[by_term], np.arange(len(self.vocab) + 1))
        return sentence[by_term], count[by_term], bounds


@dataclass
class Document:
    """A normalized document. Its sentences, and every artifact derived from
    them, are computed on first use, so a reader of the text alone (evaluation,
    FactScore chunking) never segments it."""

    id: str
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
    def token_index(self) -> TokenIndex:
        """Token index of the sentences, built on first use."""
        return TokenIndex.build(s.text for s in self.sentences)

    @cached_property
    def labelled_sentences(self) -> list[str]:
        """Each sentence's text with its speaker prefix (``"Speaker: text"``)
        when it has one, rendered once on first use."""
        return [f"{s.speaker}: {s.text}" if s.speaker else s.text for s in self.sentences]

    def release(self) -> None:
        """Drop the cached sentences and every artifact derived from them; a
        later read rebuilds them, equal to the dropped ones."""
        for name in ("sentences", "token_index", "labelled_sentences"):
            self.__dict__.pop(name, None)


def normalize_text(raw: str) -> str:
    """Canonicalize newlines and strip control characters other than newline/tab.
    Only text that holds a ``\r`` has its newlines rewritten; ASCII text
    (``str.isascii`` is O(1)) is stripped on its bytes, in C."""
    if "\r" in raw:
        raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    if raw.isascii():
        return raw.encode("ascii").translate(None, _ASCII_CONTROLS).decode("ascii")
    return _CONTROL_RE.sub("", raw)


def _alternation(words: list[str]) -> str:
    """A regex group that matches exactly ``words``, factored by leading
    character as a trie, so that a failing match tests each character once
    against the branches it could still take."""
    branches: dict[str, list[str]] = {}
    for word in sorted(words):
        branches.setdefault(word[:1], []).append(word[1:])
    return "(?:" + "|".join(re.escape(head) + _alternation(rest) if head else "" for head, rest in branches.items()) + ")"


@cache
def _protected_re() -> re.Pattern[str]:
    """A period that ends an abbreviation token, matched in the reversed text:
    the abbreviation, then any openers, then whitespace or the start of the
    text. Every abbreviation ends with a letter and a period, so a protected
    period is the first mark of its run. Compiled on first use."""
    reversed_abbreviations = [abbreviation[-2::-1] for abbreviation in ABBREVIATIONS]
    return re.compile(rf"\.(?={_alternation(reversed_abbreviations)}[{re.escape(_OPENERS)}]*(?!\S))")


def _protected_periods(text: str) -> list[int]:
    """The offsets, ascending, of the periods that end an abbreviation token:
    the characters after the last whitespace before the period, less leading
    openers, are an abbreviation. One scan of the reversed text."""
    top = len(text) - 1
    return [top - match.start() for match in _protected_re().finditer(text[::-1])][::-1]


def _sentence_bounds(text: str, regions: Sequence[tuple[str | None, int, int]]) -> list[int]:
    """``[start, end, start, end, ...]`` of the sentences of ``regions``, the
    (speaker, start, end) ranges of ``text`` in order, each next one at least
    two characters past the last (a line start and a turn's label). Each
    region is split after a terminal run followed by whitespace and an
    uppercase/digit start, unless an abbreviation protects a lone period
    (``_protected_periods``). A split leaves both sides trimmed, so only a
    region's own leading and trailing whitespace is stripped, and a blank
    region has no sentence.

    Each regex runs once, over one copy of every region at its own offsets:
    a gap between regions is ``#``s and one space, which let no boundary or
    abbreviation token cross it."""
    pieces: list[str] = []
    bounds: list[int] = []
    last = 0
    for _, start, end in regions:
        region = text[start:end]
        if start > last:
            pieces.append("#" * (start - last - 1) + " ")
        pieces.append(region)
        lead, trail = start + len(region) - len(region.lstrip()), start + len(region.rstrip())
        if lead < trail:
            bounds += (lead, trail)
        last = end
    copy = "".join(pieces)
    protected = _protected_periods(copy)
    copy = copy.replace("!", ".").replace("?", ".")
    copy = "#".join([copy[a + 1 : b] for a, b in pairwise([-1, *protected, len(copy)])])
    # The split leaves the text before each boundary, its run and its
    # whitespace: their running lengths are each run's start, end and head.
    cuts = list(accumulate(map(len, _SPLIT_RE.split(copy))))
    del cuts[::3]
    if not text.isascii():
        kept = [(end, head) for end, head in zip(cuts[0::2], cuts[1::2]) if text[head].isupper() or text[head].isdigit()]
        cuts = list(chain.from_iterable(kept))
    # A region's sentences run from its lead to its trail, cut at each run
    # end and head inside it: one sorted list of both, merged from their runs.
    return sorted(bounds + cuts)


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
    regions = [(None, 0, len(text))] if kind == "prose" else _transcript_turns(text)
    bounds = _sentence_bounds(text, regions)
    starts, ends = bounds[0::2], bounds[1::2]
    speakers = repeat(None)
    if kind == "transcript":
        region_starts = [start for _, start, _ in regions]
        speakers = [regions[bisect_right(region_starts, start) - 1][0] for start in starts]
    texts = [text[start:end] for start, end in zip(starts, ends)]
    # ``tuple.__new__`` builds each Sentence in C, where ``Sentence(...)``
    # would call the named tuple's Python-level ``__new__`` once a sentence.
    return list(map(tuple.__new__, repeat(Sentence), zip(count(), texts, zip(starts, ends), speakers)))


def make_document(
    doc_id: str,
    raw_text: str,
    kind: str = "prose",
    query: str | None = None,
    reference_summary: str | None = None,
) -> Document:
    """Normalize a document's text and query; it is segmented on first use."""
    return Document(
        id=doc_id,
        normalized_text=normalize_text(raw_text),
        query=None if query is None else normalize_text(query),
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


def load_dataset(
    path: str | Path,
    schema: str,
    limit: int | None = None,
    field_map: dict[str, str] | None = None,
) -> list[Document]:
    """Load a JSONL dataset file into Documents.

    ``scrolls_govreport`` and ``scrolls_qmsum`` read the fields {id, input,
    output}; ``generic_jsonl`` reads a caller-supplied field map {id_field,
    input_field, output_field} into prose documents.
    ``scrolls_qmsum`` additionally splits the query prefix off the input and
    marks the document as a transcript. The input must be a string, the
    output a string or null (no reference summary), and the id a string or
    an integer; any other value is a ``DatasetError`` naming ``path:line``.
    So is a string holding a lone surrogate (a JSON ``"\ud83d"`` escape
    loads as one): prompts, cache keys and records are all UTF-8.
    """
    if schema not in SCHEMAS:
        raise ConfigError(f"unknown dataset schema: {schema!r}")
    if limit is not None and limit < 0:
        raise ConfigError("dataset limit must be >= 0")
    fields = _SCROLLS_FIELDS
    if schema == "generic_jsonl":
        if not field_map:
            raise ConfigError("generic_jsonl requires a field_map")
        for key in FIELD_KEYS:
            if key not in field_map:
                raise ConfigError(f"generic_jsonl field_map missing {key!r}")
        fields = field_map
    if not Path(path).is_file():
        raise ConfigError(f"dataset file not found: {path}")

    docs: list[Document] = []
    seen_ids: set[str] = set()
    # Every non-blank line is a document or an error, so the first ``limit``
    # objects are the sample, and the lines after it are never parsed.
    for lineno, obj in islice(read_jsonl(path), limit):
        for key in FIELD_KEYS:
            if fields[key] not in obj:
                raise DatasetError(f"{path}:{lineno}: missing required field {fields[key]!r}")

        doc_id, text, reference = (obj[fields[key]] for key in FIELD_KEYS)
        if not (isinstance(doc_id, str) or is_number(doc_id, int)):
            raise DatasetError(f"{path}:{lineno}: field {fields['id_field']!r} must be a string or an integer")
        if not isinstance(text, str):
            raise DatasetError(f"{path}:{lineno}: field {fields['input_field']!r} must be a string")
        if not (reference is None or isinstance(reference, str)):
            raise DatasetError(f"{path}:{lineno}: field {fields['output_field']!r} must be a string or null")
        for key, value in zip(FIELD_KEYS, (doc_id, text, reference)):
            try:
                if isinstance(value, str):
                    value.encode("utf-8")
            except UnicodeEncodeError as exc:
                message = f"field {fields[key]!r} holds a lone surrogate, which has no UTF-8 form"
                raise DatasetError(f"{path}:{lineno}: {message}") from exc
        query, kind = None, "prose"
        if schema == "scrolls_qmsum":
            query, text = _split_query_prefix(text)
            kind = "transcript"
        doc = make_document(str(doc_id), text, kind, query, reference)

        if doc.id in seen_ids:
            raise DatasetError(f"{path}:{lineno}: duplicate document id {doc.id!r}")
        seen_ids.add(doc.id)
        docs.append(doc)
    return docs


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The (line number, object) of each non-blank line of a JSONL file, read
    strictly: a line that is not UTF-8, not JSON or not a JSON object raises a
    ``DatasetError`` naming ``path:line``. Lines end at ``\n``, each decoded
    on its own."""
    with Path(path).open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(obj, dict):
                raise DatasetError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj
