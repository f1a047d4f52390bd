"""The one input boundary: every input file the package reads is opened here.

read_bytes records each read in the ENGAGE_MIL_AUDIT trail and reports a
file it cannot open (missing, a directory, unreadable) as a ParseError.  The
decoders on top of it (read_text, read_json, text_lines, read_csv) read
strict UTF-8 and report a fault as a ParseError at the line it sits in.
`what` names the kind of file in these messages.  check_fields checks the
records a JSON file holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from .errors import ParseError

# When this environment variable names a file, the absolute path of every
# input file read is appended to it, one per line.  Tests use the trail to
# prove that training never touches held-out inputs.
AUDIT_ENV = "ENGAGE_MIL_AUDIT"

JSON_NUMBER = (int, float)

# str.splitlines also breaks at these; open(newline=""), and so csv, does not
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def read_bytes(path, what: str) -> bytes:
    """The bytes of input file `path`.  Plain open() rather than pathlib:
    extract reads thousands of frames, and pathlib costs more per call."""
    trail = os.environ.get(AUDIT_ENV)
    if trail:
        with open(trail, "a") as fh:
            fh.write(os.path.realpath(path) + "\n")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 1, exc.strerror or str(exc), what) from None


def _decode(path, data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8", what) from None


def read_text(path, what: str) -> str:
    return _decode(path, read_bytes(path, what), what)


def parse_json(path, data: bytes, what: str, **hooks):
    """`data`, read from input file `path`, as UTF-8 JSON; `hooks` go to
    json.loads, and a ValueError one raises is a ParseError at line 1."""
    text = _decode(path, data, what)
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"not valid JSON: {exc.msg}", what) from None
    except RecursionError:
        raise ParseError(path, 1, "nests too deeply", what) from None
    except ValueError as exc:  # an integer past the digit limit; a hook's refusal
        raise ParseError(path, 1, str(exc), what) from None


def read_json(path, what: str, **hooks):
    return parse_json(path, read_bytes(path, what), what, **hooks)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text[:24]}")
    return value


# hooks refusing NaN and Infinity, which json.loads takes but JSON does not
FINITE = {"parse_float": _finite_float, "parse_constant": _finite_float}


def check_fields(path, record, spec: dict, what: str) -> None:
    """Raise ParseError unless `record` is a JSON object holding every key of
    `spec` with a value of the listed type; a bool never passes as a number.
    """
    if not isinstance(record, dict):
        raise ParseError(path, 1, f"{what} must be a JSON object")
    for key, kind in spec.items():
        if key not in record:
            raise ParseError(path, 1, f"{what} missing {key!r}")
        value = record[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ParseError(path, 1, f"{what} has a bad {key!r}: {value!r}")


def text_lines(path, what: str) -> tuple[list[str], bool]:
    """The file's lines, ends kept, split where open(newline="") splits them,
    and whether the file is UTF-8.  A file that is not is decoded with
    surrogateescape.  The bytes are dropped before the text is split, which
    keeps the peak at about twice the file size."""
    data = read_bytes(path, what)
    try:
        text, clean = data.decode("utf-8"), True
    except UnicodeDecodeError:
        text, clean = data.decode("utf-8", "surrogateescape"), False
    del data
    if any(c in text for c in _OTHER_LINE_BREAKS):
        return io.StringIO(text, newline="").readlines(), clean
    return text.splitlines(keepends=True), clean


def csv_records(path, reader, clean: bool, what: str):
    """(line, cells) for each record of `reader`, the header being line 1.

    A record the csv module refuses, or one holding a byte that was not
    UTF-8 (decoded with surrogateescape when `clean` is false), is a
    ParseError at its line.
    """
    line = 0
    while True:
        line += 1
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(path, line, f"malformed row: {exc}", what) from None
        if not clean:
            try:
                ",".join(cells).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(path, line, "not UTF-8", what) from None
        yield line, cells


def read_csv(path, what: str):
    """csv_records of a file that must be UTF-8 (see text_lines)."""
    lines, clean = text_lines(path, what)
    return csv_records(path, csv.reader(iter(lines)), clean, what)
