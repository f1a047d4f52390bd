"""The one file boundary: every file the package reads or writes is opened here.

read_bytes records each read in the ENGAGE_MIL_AUDIT trail and reports a
file it cannot open (missing, a directory, unreadable) as a ParseError.  The
decoders on top of it (read_json, read_csv) read strict UTF-8 and report a
fault as a ParseError at the line it sits in.  JSON holds finite numbers
only: parse_json refuses NaN, Infinity and a number past float64's range,
and write_json will not write one.  read_csv is the one reader of CSV
tables: it checks the header row and skips blank records.  `what` names the
kind of file in these messages.  check_fields checks the records a JSON file
holds, and video_id_fault the one rule for a video id, which writers apply
too.  write_bytes writes an output file whole.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re

from .errors import OutputError, ParseError

# When this environment variable names a file, the absolute path of every
# input file read is appended to it, one per line.  Tests use the trail to
# prove that training never touches held-out inputs.
AUDIT_ENV = "ENGAGE_MIL_AUDIT"

JSON_NUMBER = (int, float)

# A video id names its feature file and fills one CSV cell: a plain file name
_VIDEO_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")

# O_BINARY keeps Windows from translating line ends
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)

# str.splitlines also breaks at these; open(newline=""), and so csv, does not
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def read_bytes(path, what: str) -> bytes:
    """The bytes of input file `path`.  Read through a bare descriptor rather
    than open(): extract reads thousands of frames, and a file object costs
    more per call."""
    trail = os.environ.get(AUDIT_ENV)
    if trail:
        with open(trail, "a") as fh:
            fh.write(os.path.realpath(path) + "\n")
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            return _read_all(fd)
        finally:
            os.close(fd)
    except OSError as exc:  # a directory fails at the read, with EISDIR
        raise ParseError(path, 1, exc.strerror or str(exc), what) from None


def _read_all(fd: int) -> bytes:
    """Every byte of descriptor `fd`: one read when it yields the size fstat
    gives, further reads to end of file otherwise (a pipe; a file that has
    shrunk or reports no size)."""
    size = os.fstat(fd).st_size
    data = os.read(fd, size) if size else b""
    if size and len(data) == size:
        return data
    parts = [data]
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text[:24]}")
    return value


def parse_json(path, data: bytes, what: str):
    """`data`, read from input file `path`, as UTF-8 JSON of finite numbers; a
    non-finite one, which json.loads takes but JSON does not, is a ParseError."""
    try:
        return json.loads(
            data.decode("utf-8"), parse_float=_finite_float, parse_constant=_finite_float
        )
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8", what) from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"not valid JSON: {exc.msg}", what) from None
    except RecursionError:
        raise ParseError(path, 1, "nests too deeply", what) from None
    except ValueError as exc:  # a non-finite number; an integer past the digit limit
        raise ParseError(path, 1, str(exc), what) from None


def read_json(path, what: str):
    return parse_json(path, read_bytes(path, what), what)


def check_fields(path, record, spec: dict, what: str) -> None:
    """Raise ParseError unless `record` is a JSON object holding every key of
    `spec` with a value of the listed type; a bool never passes as a number,
    and a `video_id` must be a plain file name (see _VIDEO_ID).
    """
    if not isinstance(record, dict):
        raise ParseError(path, 1, f"{what} must be a JSON object")
    for key, kind in spec.items():
        if key not in record:
            raise ParseError(path, 1, f"{what} missing {key!r}")
        value = record[key]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ParseError(path, 1, f"{what} has a bad {key!r}: {value!r}")
    fault = "video_id" in spec and video_id_fault(record["video_id"])
    if fault:
        raise ParseError(path, 1, f"{what} has a {fault}")


def video_id_fault(video_id: str) -> str | None:
    """What makes `video_id` other than a plain file name (see _VIDEO_ID), or
    None when it is one."""
    if _VIDEO_ID.fullmatch(video_id):
        return None
    rule = "letters, digits, '.', '_' and '-', not starting with '.'"
    return f"bad 'video_id': {video_id!r} ({rule})"


def _text_lines(path, what: str) -> tuple[list[str], bool]:
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


def _csv_records(path, reader, clean: bool, what: str):
    """(line, cells) for the header, which is line 1, and for each later
    record of `reader` that holds a non-blank cell; `line` is the line the
    record starts on (a quoted cell may hold line breaks).

    A record the csv module refuses, or one holding a byte that was not
    UTF-8 (decoded with surrogateescape when `clean` is false), is a
    ParseError at its line.
    """
    while True:
        line = reader.line_num + 1
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
        if line == 1 or "".join(cells).strip():
            yield line, cells


def read_csv(path, what: str, header=None):
    """The header cells of a CSV file that must be UTF-8, stripped (None for
    an empty file), and _csv_records for the records after it.  A header
    other than the list `header`, when given, is a ParseError at line 1."""
    lines, clean = _text_lines(path, what)
    records = _csv_records(path, csv.reader(iter(lines)), clean, what)
    first = next(records, None)
    found = None if first is None else [cell.strip() for cell in first[1]]
    if header is not None and found != header:
        raise ParseError(path, 1, f"expected header {','.join(header)!r}", what)
    return found, records


def write_bytes(path, data: bytes) -> None:
    """Write output file `path` whole, through `<path>.tmp` and a rename."""
    tmp = f"{path}.tmp"
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never made, or a directory
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def write_json(path, value) -> None:
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    write_bytes(path, (text + "\n").encode())


def write_csv(path, header, rows, line_end: str = "\r\n") -> None:
    """`header` then `rows` as UTF-8 CSV, each line ended by `line_end`.  What
    read_csv reads otherwise is a ValueError: a header cell with blanks around
    it, a row of blank cells, and a carriage return in a cell when lines end
    in a line feed alone (the csv module then leaves it unquoted)."""
    if any(cell != cell.strip() for cell in header):
        raise ValueError(f"a header cell has blanks around it: {header!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(map(_filled, rows))
    text = buffer.getvalue()
    if "\r" in text and "\r" not in line_end:
        raise ValueError("a carriage return in a cell, where a line ends in a line feed alone")
    write_bytes(path, text.encode())


def _filled(row):
    if not any(str(cell).strip() for cell in row):
        raise ValueError(f"a row of blank cells: {row!r}")
    return row
