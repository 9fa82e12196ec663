"""Exception types shared across the toolkit."""


class TracelessError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class DimensionMismatch(TracelessError):
    code = "dimension-mismatch"


class GeneratorMismatch(TracelessError):
    code = "generator-mismatch"


class EmptyFamily(TracelessError):
    code = "empty-family"


class NotHermitian(TracelessError):
    code = "not-hermitian"


class NotPositive(TracelessError):
    code = "not-positive"


class NotContractive(TracelessError):
    """The transfer map has norm >= 1, so the Neumann series need not converge."""

    code = "not-contractive"


class StaleReport(TracelessError):
    """A witness file's report disagrees with the report recomputed from its elements."""

    code = "stale-report"


class MaxIterExceeded(TracelessError):
    code = "max-iter-exceeded"


class SizeLimitExceeded(TracelessError):
    code = "size-limit-exceeded"


class TraceObstruction(TracelessError):
    """Raised when candidate elements cannot reach t0 < 1.

    In any matrix algebra the normalized trace forces t0 >= 1, so witness
    construction from matrix candidates always ends here.  Carries the
    offending value as ``t0``.
    """

    code = "trace-obstruction"

    def __init__(self, t0: float, message: str | None = None):
        self.t0 = float(t0)
        super().__init__(message or f"no trace obstruction witness: t0 = {self.t0!r} >= 1")


class SymbolicSqrtUnsupported(TracelessError):
    """The symbolic square root is only defined for recognized diagonal elements."""

    code = "symbolic-sqrt-unsupported"


class StarSyntaxError(TracelessError):
    """Expression syntax error; ``position`` is a 0-based offset into the input."""

    code = "syntax-error"

    def __init__(self, message: str, position: int):
        self.position = int(position)
        super().__init__(f"{message} (at position {position})")


class IndexOutOfRange(TracelessError):
    """A generator index fell outside 1..n."""

    code = "index-out-of-range"
