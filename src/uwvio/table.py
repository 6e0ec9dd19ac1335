"""One reader for the numeric text tables uwvio takes in: IMU CSVs, TUM
trajectories and tag detection CSVs. numpy parses the file by its path;
only a CSV with a whitespace-only line is parsed again from its stripped
lines, and only a table that still fails gets one Python pass over its
numbered lines to name the first line at fault. A field of a text dtype
(``"U1"``) is a placeholder: it counts towards the line's fields, but its
text is neither parsed nor checked.
"""

import math
from itertools import chain

import numpy as np

from .errors import InputError


def _data_lines(f, header):
    """The lines of ``f`` without leading whitespace, so that numpy skips
    whitespace-only lines and reads indented comments as comments; a first
    line starting with ``header`` comes out empty. Line numbers hold."""
    lines = map(str.lstrip, f)
    first = next(lines, "")
    return chain(["" if header and first.startswith(header) else first], lines)


def read_table(path, row, delimiter=None, header=None):
    """The columns of a numeric text table, one array per field of the
    structured ``row`` dtype and one ``row`` per data line; `#` starts a
    comment and a first line starting with ``header`` is skipped. A table
    that is not UTF-8 or has a bad field count, an unparsable field or a
    non-finite value is an `InputError` naming the file and the line; the
    cells of a placeholder field are only counted."""
    error = "non-finite value"
    try:
        with open(path, encoding="utf-8") as f:
            head = int(bool(header) and f.readline().startswith(header))
        try:
            rows = np.loadtxt(path, dtype=row, delimiter=delimiter, skiprows=head,
                              ndmin=1, encoding="utf-8")
        except ValueError:  # perhaps only a whitespace-only line of a CSV
            with open(path, encoding="utf-8") as f:
                rows = np.loadtxt(_data_lines(f, header), dtype=row,
                                  delimiter=delimiter, ndmin=1)
        if all(np.isfinite(rows[name]).all() for name in row.names
               if not _placeholder(row[name])):
            return tuple(rows[name] for name in row.names)
    except ValueError as exc:  # UnicodeDecodeError is one
        error = exc
    raise InputError(_bad_line(path, row, delimiter, header)
                     or f"{path}: {error}") from None


def _placeholder(field):
    """Whether ``field`` of a row dtype is only counted, not parsed."""
    return field.base.kind == "U"


def _bad_line(path, row, delimiter, header):
    """Message naming the first line of the table at fault, if any."""
    kinds = [row[name].base for name in row.names
             for _ in range(math.prod(row[name].shape))]
    try:
        with open(path, encoding="utf-8") as f:
            for no, line in enumerate(_data_lines(f, header), start=1):
                text = line.partition("#")[0].rstrip("\n")
                if not text:
                    continue
                fields = text.split(delimiter)
                if len(fields) != len(kinds):
                    return f"{path}:{no}: expected {len(kinds)} fields, got {len(fields)}"
                for col, (field, kind) in enumerate(zip(fields, kinds), start=1):
                    if _placeholder(kind):
                        continue
                    try:
                        value = kind.type(field)
                    except (ValueError, OverflowError):
                        return (f"{path}:{no}: could not convert string '{field}' "
                                f"to {kind} in column {col}")
                    if not np.isfinite(value):
                        return f"{path}:{no}: non-finite value"
    except UnicodeDecodeError:
        pass
