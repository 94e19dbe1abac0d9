"""The five summarization strategies, wired end to end.

direct            one call, no content plan
e2e               one call emitting the highlight list and the summary together
two_stage_gen     call 1 extracts highlights, call 2 summarizes with doc + plan
two_stage_lexrank centrality-ranked extractive plan, then one summarize call
two_stage_cc      attribution over a draft summary selects the plan, then summarize

``run_method`` is the only entry point and the one failure boundary. It
builds the ``SummaryRecord`` first, and the method fills it in as it runs:
each call's raw response, tokens and latency, then the plan and the fallback
flag. Meanwhile ``error_stage`` holds the current stage and the record
keeps the last prompt sent, unhashed; an ok record clears the stage, and any
exception leaves it, the hash of that prompt as ``error_prompt_hash`` and
the plan reached so far on a failed record. An exception that is not a
``HigenError`` is a bug, not an expected failure: its traceback is also logged at WARNING on the
``higen.pipeline`` logger, with the prompt's hash only. The stages are
``direct`` and ``e2e`` for the one-call methods; ``stage1`` (generative,
lexrank) or ``draft`` then ``attribution`` (contextcite) while ``plan``
builds the content plan; then ``stage2``, or ``fallback_direct`` when the
plan came back empty.

A document's kind picks its prompts and, unless ``max_tokens`` is set, its
generation budget, as for GovReport and QMSum: prose the ``*_gov`` templates
and 1200 tokens, a transcript the ``*_qmsum`` templates and 256.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

from .attribution import AttributionParams, contextcite_attribute
from .corpus import Document
from .errors import HigenError, ParseError, is_number, require
from .lexrank import LexRankParams, lexrank_highlights
from .llm_client import GenRequest, GenResponse, LLMClient, prompt_hash
from .prompts import (
    FORMAT_REMINDER,
    Highlight,
    HighlightSet,
    PlannedOutput,
    align,
    parse_highlights,
    parse_planned,
    ranked_highlights,
    render,
)

_logger = logging.getLogger(__name__)

METHODS = ("direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc")

_HIGHLIGHTER_FOR_METHOD = {
    "two_stage_gen": "generative",
    "two_stage_lexrank": "lexrank",
    "two_stage_cc": "contextcite",
}

_FAMILY = {"prose": "gov", "transcript": "qmsum"}
_DEFAULT_MAX_TOKENS = {"prose": 1200, "transcript": 256}


@dataclass
class PipelineParams:
    model: str
    k: int = 30
    max_tokens: int | None = None
    seed: int = 0
    attribution: AttributionParams = field(default_factory=AttributionParams)
    lexrank: LexRankParams = field(default_factory=LexRankParams)

    def __post_init__(self) -> None:
        require("model", self.model, lambda m: isinstance(m, str), "a string")
        require("k", self.k, lambda k: is_number(k, int) and k >= 1, "an integer >= 1")
        require("max_tokens", self.max_tokens, lambda t: t is None or is_number(t, int) and t >= 1, "an integer >= 1")
        require("seed", self.seed, lambda s: is_number(s, int), "an integer")


@dataclass
class SummaryRecord:
    doc_id: str
    method: str
    model: str
    highlights: HighlightSet
    summary: str = ""
    raw_responses: list[str] = field(default_factory=list)
    fallback_used: bool = False
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wall_ms: int = 0
    error: str | None = None
    error_stage: str | None = None
    error_prompt_hash: str | None = None
    # The last prompt sent while ``run_method`` runs, hashed into
    # error_prompt_hash only if the record fails. Not a field, so no record
    # line holds it.
    _last_prompt = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        """The fields in declaration order, the plan and its items as nested
        dicts: what ``dataclasses.asdict`` gives, without its recursive deep
        copy of every highlight."""
        plan = self.highlights
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "highlights": {**vars(plan), "items": tuple(vars(item).copy() for item in plan.items)},
            "raw_responses": list(self.raw_responses),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryRecord":
        hs = data["highlights"]
        items = tuple(Highlight(**item) for item in hs["items"])
        return cls(**{**data, "highlights": HighlightSet(**{**hs, "items": items})})


def _generate(client: LLMClient, record: SummaryRecord, kind: str, prompt: str, params: PipelineParams) -> GenResponse:
    max_tokens = _DEFAULT_MAX_TOKENS[kind] if params.max_tokens is None else params.max_tokens
    request = GenRequest(model=params.model, user_prompt=prompt, max_tokens=max_tokens, seed=params.seed)
    record._last_prompt = prompt
    response = client.generate(request)
    record.raw_responses.append(response.text)
    record.prompt_tokens += response.prompt_tokens
    record.completion_tokens += response.completion_tokens
    record.wall_ms += response.latency_ms
    return response


def _generate_planned(
    client: LLMClient, record: SummaryRecord, document: Document, template: str, params: PipelineParams, **fields
) -> PlannedOutput:
    """Render the document's ``template`` prompt, generate and parse, retrying
    once with a format reminder on parse failure."""
    prompt = render(f"{template}_{_FAMILY[document.kind]}", document, **fields)
    response = _generate(client, record, document.kind, prompt, params)
    try:
        return parse_planned(response.text)
    except ParseError:
        response = _generate(client, record, document.kind, prompt + "\n" + FORMAT_REMINDER, params)
        return parse_planned(response.text)


def _direct_summary(client: LLMClient, document: Document, params: PipelineParams, record: SummaryRecord) -> str:
    return _generate_planned(client, record, document, "direct", params).summary


def _aligned(method: str, document: Document, texts: list[str], params: PipelineParams) -> HighlightSet:
    """The first k generated highlight texts, aligned to the source sentences."""
    items = tuple(align(document, texts[: params.k]))
    return HighlightSet(method=method, k_requested=params.k, items=items)


def plan(
    client: LLMClient | None,
    document: Document,
    highlighter: str,
    params: PipelineParams,
    record: SummaryRecord | None = None,
) -> HighlightSet:
    """Stage 1: the content plan of one document from the chosen highlighter.

    generative asks the model for up to k sentences and aligns them to the
    source; lexrank ranks sentences by centrality and needs no client;
    contextcite drafts a direct summary and keeps the sentences whose ablation
    moves the draft's likelihood. The calls it makes are logged on ``record``."""
    record = record or SummaryRecord(document.id, highlighter, params.model, HighlightSet(highlighter, 0, ()))
    record.error_stage = "stage1"
    if highlighter == "generative":
        prompt = render(f"stage1_highlights_{_FAMILY[document.kind]}", document, k=params.k)
        response = _generate(client, record, document.kind, prompt, params)
        return _aligned("generative", document, parse_highlights(response.text), params)
    if highlighter == "lexrank":
        return lexrank_highlights(document, params.k, params.lexrank)
    if highlighter == "contextcite":
        record.error_stage = "draft"
        draft = _direct_summary(client, document, params, record)
        record.error_stage = "attribution"
        result = contextcite_attribute(client, document, draft, params.model, params.attribution, seed=params.seed)
        return ranked_highlights("contextcite", document, result.scores, params.k)
    raise ValueError(f"unknown highlighter: {highlighter!r}")


def _summarize(client: LLMClient, document: Document, params: PipelineParams, record: SummaryRecord) -> str:
    """The body of one method: returns the summary and leaves the plan, the
    stage reached and the fallback flag on ``record``."""
    method = record.method
    if method == "direct":
        record.error_stage = "direct"
        return _direct_summary(client, document, params, record)
    if method == "e2e":
        record.error_stage = "e2e"
        planned = _generate_planned(client, record, document, "e2e", params, k=params.k)
        record.highlights = _aligned("e2e", document, list(planned.highlights), params)
        return planned.summary
    record.highlights = plan(client, document, _HIGHLIGHTER_FOR_METHOD[method], params, record)
    if not record.highlights.items:
        record.error_stage = "fallback_direct"
        summary = _direct_summary(client, document, params, record)
        record.fallback_used = True  # only once the fallback has answered
        return summary
    record.error_stage = "stage2"
    highlights = record.highlights.items
    return _generate_planned(client, record, document, "stage2_summary", params, highlights=highlights).summary


def run_method(client: LLMClient, document: Document, method: str, params: PipelineParams) -> SummaryRecord:
    """One record for one (document, method) pair. Any exception in the
    method becomes a failed record at the stage it was raised in."""
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    record = SummaryRecord(document.id, method, params.model, HighlightSet(method, 0, ()))
    try:
        record.summary = _summarize(client, document, params, record)
    except Exception as exc:
        record.error = str(exc) or type(exc).__name__
        if record._last_prompt is not None:
            record.error_prompt_hash = prompt_hash(record._last_prompt)
        if not isinstance(exc, HigenError):
            _logger.warning(
                "unexpected %s in %s on document %s at stage %s (last prompt %s)",
                type(exc).__name__, method, document.id, record.error_stage, record.error_prompt_hash, exc_info=True,
            )
    else:
        record.error_stage = None
    record._last_prompt = None
    return record
