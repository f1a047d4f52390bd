"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.  A plain ValueError is a precondition
violation on an in-process call: the CLI validates its inputs before they
reach one.
"""


class EngageMilError(Exception):
    exit_code = 1


class ConfigError(EngageMilError):
    exit_code = 2


class OutputError(ConfigError, OSError):
    """An output file the OS would not write; an OSError too, for callers that catch those."""


class DataError(EngageMilError):
    exit_code = 3


class NumericError(EngageMilError):
    exit_code = 4


class ParseError(DataError):
    """A fault at 1-based `line` of the input file `path`.  `what`, set by
    the input boundary (textio), names the kind of file it could not read."""

    def __init__(self, path, line, message, what=None):
        where = f"{path}:{line}: {message}"
        super().__init__(where if what is None else f"cannot read {what} {where}")
        self.path, self.line, self.message, self.what = str(path), line, message, what

    def __reduce__(self):  # rebuilt from its arguments, so it crosses a process pool
        return type(self), (self.path, self.line, self.message, self.what)


class TooShortVideoError(DataError):
    """Fewer sampled frames than one window length."""


class EmptyVideoError(DataError):
    """A video contributed no segments at all."""


class DegenerateWindowError(DataError):
    """Window too small for any interior texture pixel."""


class CannotSplitError(DataError):
    """Subject-independent split impossible (single subject)."""


class NoReliableRatersError(DataError):
    """Every rater fell below the reliability threshold."""


class DegenerateMarginalsError(DataError):
    """Expected disagreement is zero but observed disagreement is not."""


class UndefinedCorrelationError(DataError):
    """Pearson correlation requested for a constant input, or one whose
    correlation still comes out non-finite."""


class IncompatibleArtifactsError(DataError):
    """Model and dataset disagree on feature kind, dimension or bag size."""


class InvalidSplitError(DataError):
    """Train and evaluation data share at least one subject."""


class TrainingDivergedError(NumericError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ConvergenceError(NumericError):
    """An iterative solver hit its iteration cap before its tolerance."""
