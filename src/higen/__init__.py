"""Highlight-guided summarization pipeline and evaluation harness."""

from .corpus import Document, Sentence, load_dataset, make_document, normalize_text, segment_sentences
from .llm_client import (
    GenRequest,
    GenResponse,
    HTTPBackend,
    LLMClient,
    MockBackend,
    ScoreRequest,
    ScoreResponse,
)
from .pipeline import METHODS, PipelineParams, SummaryRecord, plan, run_method
from .prompts import Highlight, HighlightSet, align, parse_highlights, parse_planned, render
from .runner import ExperimentConfig, evaluate, load_config, run

__version__ = "0.1.0"

__all__ = [
    "Document",
    "Sentence",
    "load_dataset",
    "make_document",
    "normalize_text",
    "segment_sentences",
    "GenRequest",
    "GenResponse",
    "HTTPBackend",
    "LLMClient",
    "MockBackend",
    "ScoreRequest",
    "ScoreResponse",
    "METHODS",
    "PipelineParams",
    "SummaryRecord",
    "plan",
    "run_method",
    "Highlight",
    "HighlightSet",
    "align",
    "parse_highlights",
    "parse_planned",
    "render",
    "ExperimentConfig",
    "evaluate",
    "load_config",
    "run",
    "__version__",
]
