"""The five summarization strategies, wired end to end.

direct            one call, no content plan
e2e               one call emitting the highlight list and the summary together
two_stage_gen     call 1 extracts highlights, call 2 summarizes with doc + plan
two_stage_lexrank centrality-ranked extractive plan, then one summarize call
two_stage_cc      attribution over a draft summary selects the plan, then summarize

``run_method`` is the only entry point and the one failure boundary: any
exception raised inside a method becomes a failed record that names the
stage it was raised in, keeps the plan reached so far and the hash of the
last prompt sent. An exception that is not a ``HigenError`` is a bug, not an
expected failure: its traceback is also logged at WARNING on the
``higen.pipeline`` logger, with the prompt's hash only. The stages are
``direct`` and ``e2e`` for the one-call methods; ``stage1`` (generative,
lexrank) or ``draft`` then ``attribution`` (contextcite) while ``plan``
builds the content plan; then ``stage2``, or ``fallback_direct`` when the
plan came back empty.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

from .attribution import AttributionParams, attribution_highlights, contextcite_attribute
from .corpus import Document
from .errors import HigenError, ParseError
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
    render,
)

_logger = logging.getLogger(__name__)

METHODS = ("direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc")

_HIGHLIGHTER_FOR_METHOD = {
    "two_stage_gen": "generative",
    "two_stage_lexrank": "lexrank",
    "two_stage_cc": "contextcite",
}


@dataclass
class PipelineParams:
    model: str
    k: int = 30
    template_family: str = "gov"
    align_threshold: float = 0.6
    max_tokens: int = 1200
    seed: int | None = 0
    attribution: AttributionParams = field(default_factory=AttributionParams)
    lexrank: LexRankParams = field(default_factory=LexRankParams)


@dataclass
class SummaryRecord:
    doc_id: str
    method: str
    model: str
    highlights: HighlightSet
    summary: str
    raw_responses: list[str]
    fallback_used: bool = False
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wall_ms: int = 0
    error: str | None = None
    error_stage: str | None = None
    error_prompt_hash: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        data = asdict(self)
        hs = data["highlights"]
        data["highlights"] = {"method": hs["method"], "k_requested": hs["k_requested"], "items": list(hs["items"])}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryRecord":
        hs = data["highlights"]
        items = tuple(Highlight(**item) for item in hs["items"])
        highlights = HighlightSet(method=hs["method"], items=items, k_requested=hs["k_requested"])
        return cls(**{**data, "highlights": highlights})


class _CallLog:
    """What one record has reached so far: its LLM generate calls, the stage
    it is in, the content plan and whether the direct fallback answered."""

    def __init__(self, method: str = "") -> None:
        self.raw: list[str] = []
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.wall_ms = 0
        self.last_prompt = ""
        self.stage = ""
        self.highlights = HighlightSet(method=method, items=(), k_requested=0)
        self.fallback_used = False


def _generate(client: LLMClient, log: _CallLog, prompt: str, params: PipelineParams, doc_id: str) -> GenResponse:
    request = GenRequest(
        model=params.model,
        user_prompt=prompt,
        max_tokens=params.max_tokens,
        seed=params.seed,
    )
    log.last_prompt = prompt
    response = client.generate(request, doc_id=doc_id)
    log.raw.append(response.text)
    log.prompt_tokens += response.prompt_tokens
    log.completion_tokens += response.completion_tokens
    log.wall_ms += response.latency_ms
    return response


def _generate_planned(
    client: LLMClient, log: _CallLog, prompt: str, params: PipelineParams, doc_id: str
) -> PlannedOutput:
    """Generate and parse, retrying once with a format reminder on parse failure."""
    response = _generate(client, log, prompt, params, doc_id)
    try:
        return parse_planned(response.text)
    except ParseError:
        retry_prompt = prompt + "\n" + FORMAT_REMINDER
        response = _generate(client, log, retry_prompt, params, doc_id)
        return parse_planned(response.text)


def _direct_summary(client: LLMClient, document: Document, params: PipelineParams, log: _CallLog) -> str:
    prompt = render(f"direct_{params.template_family}", document)
    return _generate_planned(client, log, prompt, params, document.id).summary


def plan(
    client: LLMClient | None,
    document: Document,
    highlighter: str,
    params: PipelineParams,
    log: _CallLog | None = None,
) -> HighlightSet:
    """Stage 1: the content plan of one document from the chosen highlighter.

    generative asks the model for up to k sentences and aligns them to the
    source; lexrank ranks sentences by centrality and needs no client;
    contextcite drafts a direct summary and keeps the sentences whose ablation
    moves the draft's likelihood."""
    log = log or _CallLog()
    log.stage = "stage1"
    if highlighter == "generative":
        prompt = render(f"stage1_highlights_{params.template_family}", document, k=params.k)
        response = _generate(client, log, prompt, params, document.id)
        texts = parse_highlights(response.text)[: params.k]
        items = tuple(align(document, texts, params.align_threshold))
        return HighlightSet(method="generative", items=items, k_requested=params.k)
    if highlighter == "lexrank":
        return lexrank_highlights(document, params.k, params.lexrank)
    if highlighter == "contextcite":
        log.stage = "draft"
        draft = _direct_summary(client, document, params, log)
        log.stage = "attribution"
        result = contextcite_attribute(client, document, draft, params.model, params.attribution, seed=params.seed or 0)
        return attribution_highlights(result, document, params.k)
    raise ValueError(f"unknown highlighter: {highlighter!r}")


def _summarize(client: LLMClient, document: Document, method: str, params: PipelineParams, log: _CallLog) -> str:
    """The body of one method: returns the summary and leaves the plan, the
    stage reached and the fallback flag on ``log``."""
    if method == "direct":
        log.stage = "direct"
        return _direct_summary(client, document, params, log)
    if method == "e2e":
        log.stage = "e2e"
        prompt = render(f"e2e_{params.template_family}", document, k=params.k)
        planned = _generate_planned(client, log, prompt, params, document.id)
        texts = list(planned.highlights)[: params.k]
        items = tuple(align(document, texts, params.align_threshold))
        log.highlights = HighlightSet(method="e2e", items=items, k_requested=params.k)
        return planned.summary
    log.highlights = plan(client, document, _HIGHLIGHTER_FOR_METHOD[method], params, log)
    if not log.highlights.items:
        log.stage = "fallback_direct"
        summary = _direct_summary(client, document, params, log)
        log.fallback_used = True
        return summary
    log.stage = "stage2"
    prompt = render(f"stage2_summary_{params.template_family}", document, highlights=log.highlights.items)
    return _generate_planned(client, log, prompt, params, document.id).summary


def run_method(client: LLMClient, document: Document, method: str, params: PipelineParams) -> SummaryRecord:
    """One record for one (document, method) pair. Any exception in the
    method becomes a failed record at the stage it was raised in."""
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    log = _CallLog(method)
    summary, error, error_prompt_hash = "", None, None
    try:
        summary = _summarize(client, document, method, params, log)
    except Exception as exc:
        error = str(exc) or type(exc).__name__
        error_prompt_hash = prompt_hash(log.last_prompt) if log.last_prompt else None
        if not isinstance(exc, HigenError):
            _logger.warning(
                "unexpected %s in %s on document %s at stage %s (last prompt %s)",
                type(exc).__name__, method, document.id, log.stage, error_prompt_hash, exc_info=True,
            )
    return SummaryRecord(
        doc_id=document.id,
        method=method,
        model=params.model,
        highlights=log.highlights,
        summary=summary,
        raw_responses=log.raw,
        fallback_used=log.fallback_used,
        prompt_tokens=log.prompt_tokens,
        completion_tokens=log.completion_tokens,
        wall_ms=log.wall_ms,
        error=error,
        error_stage=log.stage if error is not None else None,
        error_prompt_hash=error_prompt_hash,
    )
