"""Exception hierarchy shared across the package."""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable


def is_number(value: Any, kind: type = numbers.Real) -> bool:
    """Whether ``value`` is a finite ``kind`` and not a bool. YAML's true and
    false load as Python bools, which are ints, but no count or rate is a truth
    value; and YAML's .inf and .nan are floats, but no timeout, delay or rate
    is infinite or undefined."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value)


def require(name: str, value: Any, ok: Callable[[Any], bool], rule: str) -> None:
    """Raise ValueError("<name> must be <rule>, got <value>") unless ok(value)
    holds. A value of the wrong type, such as the string "30" for a count,
    fails the check instead of raising a TypeError of its own."""
    try:
        if ok(value):
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be {rule}, got {value!r}")


class HigenError(Exception):
    """Base class for every error raised by this package."""


class DatasetError(HigenError):
    """Malformed dataset file or record (carries file/line context in the message)."""


class ConfigError(HigenError):
    """Invalid or incomplete experiment configuration."""


class RenderError(HigenError):
    """A template placeholder could not be filled."""


class ParseError(HigenError):
    """A structured model output did not match the expected scaffold."""


class EndpointError(HigenError):
    """Non-retryable HTTP failure from the inference endpoint."""

    def __init__(self, status: int, body_excerpt: str = ""):
        self.status = status
        self.body_excerpt = body_excerpt
        super().__init__(f"endpoint returned HTTP {status}: {body_excerpt}")


class TransportError(HigenError):
    """Retries exhausted on transient failures (timeouts, 429, 5xx)."""


class OversizeError(HigenError):
    """The backend rejected a request for exceeding its context window."""

    def __init__(self, message: str, doc_id: str | None = None):
        self.doc_id = doc_id
        if doc_id:
            message = f"{message} (document {doc_id})"
        super().__init__(message)


class CapabilityError(HigenError):
    """The backend lacks a required capability (e.g. echoed token logprobs)."""


class SeamAlignmentError(HigenError):
    """The context/continuation boundary could not be aligned to a token boundary."""


class DomainError(HigenError):
    """A value outside the mathematical domain of an operation."""


class AttributionError(HigenError):
    """Attribution failed (scoring error or too few usable ablation samples)."""


class ReportError(HigenError):
    """Result aggregation could not proceed (e.g. empty document join)."""
