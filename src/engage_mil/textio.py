"""Text-file readers shared by the CSV parsers.

Each reads its file as strict UTF-8 and reports a fault as a ParseError at
the line it sits in.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import ParseError

# str.splitlines also breaks at these; open(newline=""), and so csv, does not
_OTHER_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def text_lines(path) -> tuple[list[str], bool]:
    """The file's lines, ends kept, split where open(newline="") splits them,
    and whether the file is UTF-8.  A file that is not is decoded with
    surrogateescape.  The bytes are dropped before the text is split, which
    keeps the peak at about twice the file size."""
    try:
        text, clean = Path(path).read_bytes().decode("utf-8"), True
    except UnicodeDecodeError:
        text, clean = Path(path).read_bytes().decode("utf-8", "surrogateescape"), False
    if any(c in text for c in _OTHER_LINE_BREAKS):
        return io.StringIO(text, newline="").readlines(), clean
    return text.splitlines(keepends=True), clean


def csv_records(path, reader, clean: bool):
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
            raise ParseError(path, line, f"malformed row: {exc}") from None
        if not clean:
            try:
                ",".join(cells).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(path, line, "not UTF-8") from None
        yield line, cells


def read_csv(path):
    """csv_records of a file that must be UTF-8 (see text_lines)."""
    lines, clean = text_lines(path)
    return csv_records(path, csv.reader(iter(lines)), clean)
