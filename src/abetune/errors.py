"""Exception types shared across the package."""


class AbetuneError(Exception):
    """Base class for all library errors."""


class SchemaError(AbetuneError):
    """A dataset schema is malformed (duplicate names, missing effort column, ...)."""


class ParseError(AbetuneError):
    """A CSV cell could not be parsed; carries row/column context."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class InsufficientDataError(AbetuneError):
    """Too few usable rows remain for the requested operation."""


class BoundsError(AbetuneError):
    """A parameter (k, v, index) is outside its legal range."""


class EvaluationError(AbetuneError):
    """An objective evaluation produced a non-finite value."""


class UndefinedBaselineError(AbetuneError):
    """Random-guess baseline is degenerate (zero spread)."""


class ConfigError(AbetuneError):
    """Experiment configuration failed validation."""
