"""Seeded synthetic corpora in the two shapes the paper evaluates on.

``gov``    GovReport-shaped prose: topical paragraphs of 12-35 word sentences,
           a ~550-token reference built from paraphrased source sentences.
``qmsum``  QMSum-shaped transcripts: a query line, a ``=====`` fence, then
           several hundred ``Speaker: utterance`` turns, read through the
           ``scrolls_qmsum`` schema.

Sentence counts of gov documents are drawn log-uniformly over [100, 800] by
stratified sampling: document i of n draws from the i-th of n equal strata of
log(size), in a seeded order, so even a small corpus spans the whole range.

Two seeds drive a corpus. The structure seed draws everything that decides
how much work a document is: sizes, topic layout, which vocabulary rank sits
at which token position, and the reference. The word seed spells each
vocabulary rank through a seeded letter substitution. Every kernel in higen
depends on tokens only through equality and length (tf-idf, alignment F1,
ROUGE-L, the overlap scorer, hashing), so corpora that share a structure seed
cost the same to process while their text differs.

The same seeds always yield byte-identical JSONL.
"""

from __future__ import annotations

import json
import itertools
import math
import random
import string
from pathlib import Path

GOV_MIN_SENTENCES = 100
GOV_MAX_SENTENCES = 800
GOV_REFERENCE_TOKENS = 550
QMSUM_MIN_TURNS = 200
QMSUM_MAX_TURNS = 360
QMSUM_REFERENCE_TOKENS = 90

_FUNCTION_WORDS = (
    "the of and to in for on with by from that this as at is are was were be has have "
    "its their which under over into about between during than also more such these"
).split()
_ONSETS = ("b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pr", "r", "s", "sh", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "n", "r", "s", "t", "l", "m", "nd", "st", "rk", "ng")
_SPEAKERS = ("Project Manager", "Marketing", "Industrial Designer", "User Interface")
_FILLERS = ("Yeah.", "Okay.", "Right.", "Mm-hmm.", "Sure.")


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    # Seven letters or more: no letter substitution can turn a pseudo-word
    # into a stopword or an abbreviation, short of a ~1e-7 coincidence.
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((2, 2, 2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(syllables))
        if len(word) >= 7:
            words.add(word)
    return sorted(words)


class _Lexicon:
    """Zipf-weighted content vocabulary. Structure draws pick vocabulary ranks;
    the word seed spells each rank through a seeded letter substitution, which
    keeps every word's length and keeps distinct words distinct."""

    def __init__(self, structure_rng: random.Random, word_seed: int, size: int = 4000):
        self.words = _vocabulary(structure_rng, size)
        structure_rng.shuffle(self.words)
        letters = string.ascii_lowercase
        substitution = str.maketrans(letters, "".join(random.Random(f"words:{word_seed}").sample(letters, len(letters))))
        self.words = [word.translate(substitution) for word in self.words]
        self.ranks = range(size)
        self.cum_weights = list(itertools.accumulate(1.0 / (rank + 1) ** 1.05 for rank in self.ranks))

    def draw(self, rng: random.Random, k: int) -> list[int]:
        return rng.choices(self.ranks, cum_weights=self.cum_weights, k=k)

    def sentence(self, rng: random.Random, topic: list[int], length: int) -> str:
        tokens = []
        for position in range(length):
            if position % 3 == 1 and position < length - 1:
                tokens.append(rng.choice(_FUNCTION_WORDS))
            elif rng.random() < 0.7:
                tokens.append(self.words[rng.choice(topic)])
            else:
                tokens.append(self.words[self.draw(rng, 1)[0]])
        if rng.random() < 0.15:
            tokens.insert(rng.randrange(1, length), str(rng.randrange(2, 2000)))
        tokens[0] = tokens[0].capitalize()
        return " ".join(tokens) + "."


def stratified_log_uniform(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    span = math.log(high) - math.log(low)
    draws = [round(math.exp(math.log(low) + span * (i + rng.random()) / count)) for i in range(count)]
    rng.shuffle(draws)
    return draws


def _reference(rng: random.Random, sentences: list[str], target_tokens: int) -> str:
    """Paraphrase-like reference: sampled source sentences with words dropped."""
    out: list[str] = []
    total = 0
    pool = list(range(len(sentences)))
    while total < target_tokens and pool:
        index = pool.pop(rng.randrange(len(pool)))
        words = sentences[index].rstrip(".").split()
        kept = [w for i, w in enumerate(words) if i == 0 or rng.random() > 0.2]
        out.append(" ".join(kept) + ".")
        total += len(kept)
    return " ".join(out)


def gov_document(rng: random.Random, lexicon: _Lexicon, doc_id: str, n_sentences: int) -> dict:
    topics = [lexicon.draw(rng, 60) for _ in range(8)]
    paragraphs: list[str] = []
    sentences: list[str] = []
    while len(sentences) < n_sentences:
        topic = rng.choice(topics)
        size = min(rng.randint(4, 8), n_sentences - len(sentences))
        paragraph = [lexicon.sentence(rng, topic, rng.randint(12, 35)) for _ in range(size)]
        sentences.extend(paragraph)
        paragraphs.append(" ".join(paragraph))
    return {
        "id": doc_id,
        "input": "\n\n".join(paragraphs),
        "output": _reference(rng, sentences, GOV_REFERENCE_TOKENS),
        "sentences": len(sentences),
    }


def qmsum_document(rng: random.Random, lexicon: _Lexicon, doc_id: str, n_turns: int) -> dict:
    topics = [lexicon.draw(rng, 40) for _ in range(6)]
    focus = rng.choice(topics)
    lines: list[str] = []
    sentences: list[str] = []
    speaker = rng.choice(_SPEAKERS)
    topic = rng.choice(topics)
    for _ in range(n_turns):
        speaker = rng.choice([s for s in _SPEAKERS if s != speaker])
        if rng.random() < 0.2:
            topic = rng.choice(topics)
        if rng.random() < 0.15:
            turn = [rng.choice(_FILLERS)]
        else:
            turn = [lexicon.sentence(rng, topic, rng.randint(6, 20)) for _ in range(rng.randint(1, 3))]
        sentences.extend(turn)
        lines.append(f"{speaker}: {' '.join(turn)}")
    query = f"What did the group decide about the {lexicon.words[focus[0]]} {lexicon.words[focus[1]]}?"
    return {
        "id": doc_id,
        "input": f"{query}\n\n==========\n" + "\n".join(lines),
        "output": _reference(rng, sentences, QMSUM_REFERENCE_TOKENS),
        "sentences": len(sentences),
    }


def generate(shape: str, docs: int, seed: int, structure_seed: int) -> list[dict]:
    """``docs`` records of the given shape; ``sentences`` is the generated count."""
    if shape not in ("gov", "qmsum"):
        raise ValueError(f"unknown corpus shape {shape!r}")
    rng = random.Random(f"{shape}:{structure_seed}")
    lexicon = _Lexicon(rng, seed)
    if shape == "gov":
        sizes = stratified_log_uniform(rng, docs, GOV_MIN_SENTENCES, GOV_MAX_SENTENCES)
        return [gov_document(rng, lexicon, f"gov{seed}_{i:03d}", n) for i, n in enumerate(sizes)]
    return [
        qmsum_document(rng, lexicon, f"qm{seed}_{i:03d}", rng.randint(QMSUM_MIN_TURNS, QMSUM_MAX_TURNS))
        for i in range(docs)
    ]


def write_jsonl(records: list[dict], path: Path) -> None:
    """Dataset rows carry only the schema fields; sentence counts stay out."""
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            row = {key: record[key] for key in ("id", "input", "output")}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")

