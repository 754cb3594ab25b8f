"""Reading and writing competition/power traces as CSV.

The native schema is a header line ``timestamp_s,competition_pct,power_w``
followed by one sample per line.  Numbers use a plain decimal point, no
thousands separators, and are written with their shortest round-trip
representation, so read(write(trace)) reproduces the trace value-exactly.
Every error carries the 1-based line (and, for field errors, column) where
it occurred; nothing is silently truncated.

External datasets with different column names or order can be ingested by
passing a ``columns`` mapping from the canonical names to the names used in
the file, which switches header matching from positional to by-name.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    InputError,
    ProcwattError,
    TraceFormatError,
    TraceParseError,
    TraceValidationError,
)
from .fitting import TraceSample, TraceSamples

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


def _parse_field(raw: str, line_no: int, column: int, name: str) -> float:
    text = raw.strip()
    if "_" in text or not text:
        raise TraceParseError(f"cannot parse {name} from {raw!r}", line_no, column)
    try:
        value = float(text)
    except ValueError:
        raise TraceParseError(
            f"cannot parse {name} from {raw!r}", line_no, column
        ) from None
    if not math.isfinite(value):
        raise TraceValidationError(f"{name} must be finite, got {raw!r}", line_no)
    return value


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

    width = len(header)
    lines = stream.readlines()
    samples = _parse_bulk(lines, width, indices)
    if samples is None:
        samples = _parse_lines(lines, width, indices)
    return TraceFile(samples=samples)


def _parse_bulk(lines, width, indices) -> Optional[TraceSamples]:
    """Parse every row at once, or return None if any row is irregular.

    Irregular means anything the line-by-line parser might reject or treat
    specially: a carriage return, a blank line, a wrong field count, an
    underscore or unparsable text in a used field, a value that breaks the
    sample contract, or a decreasing timestamp.  That parser then runs and
    reports the exact line and column.
    """
    if list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines):
        return None
    body = "".join(lines)
    if "\r" in body:
        return None
    # each line holds width fields and at most one (trailing) newline
    fields = body.replace("\n", ",").split(",")
    size = len(lines) * width
    columns = [fields[indices[name] : size : width] for name in CANONICAL_COLUMNS]
    if "_" in body and any("_" in ",".join(column) for column in columns):
        return None
    try:
        t, competition, power = (
            np.fromiter(map(float, column), dtype=np.float64, count=len(lines))
            for column in columns
        )
    except ValueError:
        return None
    if np.any(t[1:] < t[:-1]):
        return None
    try:
        return TraceSamples(t, competition, power)
    except InputError:
        return None


def _parse_lines(lines, width, indices) -> list:
    """Parse row by row, raising at the first bad row with its line and column."""
    samples = []
    last_t = None
    for line_no, raw_line in enumerate(lines, start=2):
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise TraceParseError(
                f"expected {width} fields, got {len(fields)}",
                line_no,
                min(len(fields), width) + 1,
            )
        t = _parse_field(fields[indices["timestamp_s"]], line_no, indices["timestamp_s"] + 1, "timestamp_s")
        comp = _parse_field(fields[indices["competition_pct"]], line_no, indices["competition_pct"] + 1, "competition_pct")
        power = _parse_field(fields[indices["power_w"]], line_no, indices["power_w"] + 1, "power_w")
        try:
            sample = TraceSample(t=t, competition=comp, power=power)
        except ProcwattError as exc:
            raise TraceValidationError(str(exc), line_no) from None
        if last_t is not None and sample.t < last_t:
            raise TraceValidationError(
                f"timestamp {sample.t!r} decreases (previous {last_t!r})", line_no
            )
        last_t = sample.t
        samples.append(sample)
    return samples


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
