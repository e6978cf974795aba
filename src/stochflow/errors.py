"""Exception types shared across stochflow modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Byte range [start, end) of a token or node in an expression source string."""

    start: int
    end: int

    def excerpt(self, source: str) -> str:
        return source[self.start : self.end]


class StochflowError(Exception):
    """Base class for all package-specific errors."""


class ExprError(StochflowError):
    """Base for expression-DSL errors; carries the offending source span."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.span = span


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    pass


class DomainError(StochflowError):
    """Evaluation left the function's domain (log of non-positive, division by zero, ...)."""


class DimensionMismatch(StochflowError):
    pass


class BlowUp(StochflowError):
    """Grid solution became non-finite."""


class PositivityViolation(StochflowError):
    """A field that must stay positive failed to."""


class NonPositiveDensity(StochflowError):
    """Density samples contain non-positive values."""


class InsufficientRealizations(StochflowError):
    pass


class SupportEscape(StochflowError):
    """The image of the data's support left the region a grid field covers."""


class SignalTooNoisy(StochflowError):
    """Statistical bands are too wide to support any verdict."""


class ConfigError(StochflowError):
    """Scenario configuration is malformed; message names the offending field."""
