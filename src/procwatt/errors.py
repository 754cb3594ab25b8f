"""Exception hierarchy shared by all procwatt modules."""


class ProcwattError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the command line's exit status for the error.
    """

    exit_code = 2


class DomainError(ProcwattError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class SingularityError(ProcwattError, ValueError):
    """The requested quantity is unbounded at the given point."""


class InputError(ProcwattError, ValueError):
    """Structurally invalid input (bad keys, broken invariants, unknown ids)."""


class InsufficientDataError(ProcwattError, ValueError):
    """Too few samples or points to carry out the operation."""

    exit_code = 3


class OrderingError(ProcwattError, ValueError):
    """Timestamps decrease where integration needs them in order."""


class DegenerateDesignError(ProcwattError, ValueError):
    """Regression design has no spread in the predictor."""

    exit_code = 3


class DegenerateStatisticsError(ProcwattError, ValueError):
    """Test statistic is undefined (zero standard error or no degrees of freedom)."""

    exit_code = 3


class MismatchError(ProcwattError, ValueError):
    """Two results that must come from the same data do not."""


class NoThresholdError(ProcwattError, ValueError):
    """The derivative-sign threshold does not exist for these parameters."""


class ConfigError(ProcwattError, ValueError):
    """Invalid simulation protocol configuration."""


class SizeLimitError(ProcwattError, ValueError):
    """The instance exceeds the safety limits of exhaustive enumeration."""

    exit_code = 5


class ProfileKindError(ProcwattError, TypeError):
    """A power profile of the wrong kind (linear vs n-root) was supplied."""

    exit_code = 4


class TraceFormatError(ProcwattError, ValueError):
    """Malformed trace file structure (header or framing).

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TraceParseError(ProcwattError, ValueError):
    """A field of a trace row failed to parse as a number.

    Carries 1-based line and column (field position) numbers.
    """

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TraceValidationError(ProcwattError, ValueError):
    """A parsed trace row violates a value invariant.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
