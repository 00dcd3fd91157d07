"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable diagnostics without string-matching messages.
"""
from __future__ import annotations


class DealdeskError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def to_diagnostic(self) -> dict:
        return {"error": self.code, "message": str(self)}


class NonPositiveSharesError(DealdeskError):
    code = "NonPositiveShares"


class MismatchedStubsError(DealdeskError):
    code = "MismatchedStubs"


class MissingFiscalYearError(DealdeskError):
    code = "MissingFiscalYear"


class MetricAbsentError(DealdeskError):
    code = "MetricAbsent"


class NonPositiveMetricError(DealdeskError):
    """A valuation method row was given a zero or negative target metric."""

    code = "NonPositiveMetric"


class DegenerateRateError(DealdeskError):
    code = "DegenerateRate"


class DegenerateRegressorError(DealdeskError):
    code = "DegenerateRegressor"


class TooShortError(DealdeskError):
    code = "TooShort"


class RankDeficientError(DealdeskError):
    code = "RankDeficient"

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class TooFewRowsError(DealdeskError):
    code = "TooFewRows"


class ZeroVarianceError(DealdeskError):
    code = "ZeroVariance"


class WindowTooLargeError(DealdeskError):
    code = "WindowTooLarge"


class IllConditionedError(DealdeskError):
    code = "IllConditioned"


class HeaderMismatchError(DealdeskError, ValueError):
    """A CSV lacks columns its loader needs. A ValueError too, like the
    other ways a file's contents can be unreadable (a bad number or date)."""

    code = "HeaderMismatch"

    def __init__(self, message: str, missing: tuple[str, ...] = ()):
        super().__init__(message)
        self.missing = missing


class EmptyAfterFilterError(DealdeskError):
    code = "EmptyAfterFilter"


class ConfigInvalidError(DealdeskError):
    code = "ConfigInvalid"
