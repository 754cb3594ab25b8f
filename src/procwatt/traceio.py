"""Reading and writing competition/power traces as CSV.

The native schema is a header line ``timestamp_s,competition_pct,power_w``
followed by one sample per line.  Numbers use a plain decimal point, no
thousands separators, and are written with their shortest round-trip
representation, so read(write(trace)) reproduces the trace value-exactly.
Reading accepts LF and CRLF line ends and skips blank lines.  It parses the
whole body column by column in one pass; when a line is bad, the first bad
line's error carries its 1-based line number in the file, blank lines
counted (and, for field errors, its column).  Nothing is silently truncated.

External datasets with different column names or order can be ingested by
passing a ``columns`` mapping from the canonical names to the names used in
the file, which switches header matching from positional to by-name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import TraceFormatError, TraceParseError, TraceValidationError
from .fitting import TraceSample, TraceSamples, _first_failure, _violation

CANONICAL_COLUMNS = ("timestamp_s", "competition_pct", "power_w")


@dataclass
class TraceFile:
    """A parsed or simulated trace: its samples and nothing else.

    ``samples`` may be given as any iterable of TraceSample and is stored as
    a TraceSamples, whose ``t``, ``competition`` and ``power`` arrays hold
    the trace column by column.
    """

    samples: Sequence[TraceSample] = ()

    def __post_init__(self):
        self.samples = TraceSamples.of(self.samples)


def _open_source(source) -> tuple[TextIO, bool]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


def read_trace(
    source: Union[str, os.PathLike, TextIO],
    columns: Optional[Mapping[str, str]] = None,
) -> TraceFile:
    """Parse a trace CSV from a path or an open text stream.

    Parameters
    ----------
    source : path or text file object
        UTF-8 text whose first line is the header.
    columns : mapping, optional
        Renames of the canonical column names, e.g.
        ``{"timestamp_s": "time", "power_w": "watts"}``.  When given, columns
        are located by name in any order and extra columns are ignored;
        without it the header must match the canonical schema exactly.

    Returns
    -------
    TraceFile
        All samples in file order.  A header-only file is a valid empty
        trace; downstream operations raise their own insufficient-data
        errors.
    """
    stream, owned = _open_source(source)
    try:
        return _read_stream(stream, columns)
    finally:
        if owned:
            stream.close()


def _read_stream(stream, columns) -> TraceFile:
    header_line = stream.readline()
    if not header_line:
        raise TraceFormatError("empty file, expected header", line=1)
    header = [h.strip() for h in header_line.rstrip("\r\n").split(",")]

    if columns is None:
        if header != list(CANONICAL_COLUMNS):
            raise TraceFormatError(
                f"expected header {','.join(CANONICAL_COLUMNS)!r}, got {header_line.strip()!r}",
                line=1,
            )
        indices = {name: i for i, name in enumerate(CANONICAL_COLUMNS)}
    else:
        unknown = set(columns) - set(CANONICAL_COLUMNS)
        if unknown:
            raise TraceFormatError(
                f"unknown canonical column names in mapping: {sorted(unknown)}", line=1
            )
        indices = {}
        for name in CANONICAL_COLUMNS:
            actual = columns.get(name, name)
            if actual not in header:
                raise TraceFormatError(
                    f"column {actual!r} not found in header {header}", line=1
                )
            indices[name] = header.index(actual)

    return TraceFile(samples=_parse_rows(stream.readlines(), len(header), indices))


def _parse_rows(lines, width, indices) -> TraceSamples:
    """Parse the lines after the header column by column, raising at the first bad one.

    Blank lines are skipped, but they keep their place in the line numbering.
    A line is checked in this order: its field count; that each of
    timestamp_s, competition_pct and power_w parses and is finite; the
    TraceSamples rules; and that its timestamp does not decrease.
    """
    numbers = range(2, len(lines) + 2)
    commas = list(map(str.count, lines, repeat(",")))
    fit = np.ones(len(lines), bool)
    # a blank line has no comma, so it has the right count only in a one-column file
    if width == 1 or commas.count(width - 1) != len(lines):
        kept = ~np.fromiter(map(str.isspace, lines), bool, len(lines))
        numbers, commas = np.flatnonzero(kept) + 2, np.array(commas)[kept]
        lines, fit = list(compress(lines, kept)), commas == width - 1
        # a line of the wrong width fails first, so empty fields can stand in for it
        for row in np.flatnonzero(~fit).tolist():
            lines[row] = "," * (width - 1) + "\n"
    body = "".join(lines)
    if "\r" in body:
        body = "\n".join(map(str.rstrip, lines, repeat("\r\n")))
    # each line now holds width fields and at most one (trailing) newline
    fields = body.replace("\n", ",").split(",")
    raw = {name: fields[indices[name] : len(lines) * width : width] for name in CANONICAL_COLUMNS}
    checks, columns = [("fields", fit, "count")], []
    for name in CANONICAL_COLUMNS:
        column, parsed = _floats(raw[name], "_" in body)
        checks += [(name, parsed, "parse"), (name, np.isfinite(column), "must be finite")]
        columns.append(column)
    t = columns[0]
    checks += TraceSamples._rules(*columns)
    checks.append(("timestamp_s", t >= np.r_[t[:1], t[:-1]], "order"))
    failure = _first_failure(checks)
    if failure is None:
        return TraceSamples._of_checked(columns)
    row, check = failure
    name, _, rule = check
    line = int(numbers[row])
    if rule == "count":
        got = int(commas[row]) + 1
        raise TraceParseError(f"expected {width} fields, got {got}", line, min(got, width) + 1)
    if rule == "parse":
        column = indices[name] + 1
        raise TraceParseError(f"cannot parse {name} from {raw[name][row]!r}", line, column)
    if rule == "order":
        raise TraceValidationError(
            f"timestamp {t[row].item()!r} decreases (previous {t[row - 1].item()!r})", line
        )
    values = {**raw, **dict(zip(TraceSamples._fields, columns))}
    raise TraceValidationError(_violation(check, values[name][row]), line)


def _floats(fields, underscores):
    """The fields as float64, NaN where one does not parse, and the mask of those that do.

    A field parses when float() takes it and it holds no underscore, which
    float() reads as a digit separator: '1_0' would be 10.0.
    """
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
        parsed = np.ones(len(fields), bool)
    except ValueError:
        numbers = list(map(_number, fields))
        values, parsed = np.array(numbers, np.float64), np.array([x is not None for x in numbers])
    if underscores:
        parsed &= ~np.fromiter(map(str.__contains__, fields, repeat("_")), bool, len(fields))
    return values, parsed


def _number(field):
    try:
        return float(field)
    except ValueError:
        return None


def write_trace(trace: TraceFile, sink: Union[str, os.PathLike, TextIO]) -> None:
    """Write the canonical CSV form of a trace.

    Floats are rendered with repr, the shortest digits that parse back to the
    identical double, so a write/read cycle is the identity.
    """
    text = trace_to_string(trace)
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
    else:
        sink.write(text)


def trace_to_string(trace: TraceFile) -> str:
    samples = TraceSamples.of(trace.samples)
    columns = [map(repr, col.tolist()) for col in (samples.t, samples.competition, samples.power)]
    return "\n".join([",".join(CANONICAL_COLUMNS), *map(",".join, zip(*columns))]) + "\n"
