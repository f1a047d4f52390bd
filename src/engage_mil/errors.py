"""Exception hierarchy shared by all modules.

Every refusal is one of five classes, and the CLI maps each onto its
process exit code: ConfigError or OutputError -> 2, DataError or
ParseError -> 3, NumericError -> 4.  The message says what went wrong; no
caller tells two refusals of one class apart.  A plain ValueError is a
precondition violation on an in-process call: the CLI validates its inputs
before they reach one.
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
    """A computation that left the finite numbers or hit an iteration cap."""

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
