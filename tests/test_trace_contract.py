"""The trace contract shared by simulate, traceio and fitting.

Pinned digests fix the exact CSV bytes and fit reports for fixed seeds; the
reference functions below are the object-per-sample implementations the
columnar code replaced, kept to check it against.
"""

import hashlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procwatt import (
    AggregatedPoint,
    AggregatedPoints,
    LinearProfile,
    NRootProfile,
    ProtocolConfig,
    TraceFile,
    TraceSample,
    TraceSamples,
    aggregate,
    competition_levels,
    evaluate,
    fit_linear,
    fit_nroot,
    fit_report_to_dict,
    generate_trace,
    integrate_energy,
    points_from_samples,
    read_trace,
    samples_per_level,
    select_model,
    selection_to_dict,
    trace_to_string,
    traceio,
    write_trace,
)
from procwatt.errors import InputError, ProcwattError, TraceParseError, TraceValidationError
from procwatt.simulate import _cycle_rng

SRC = str(Path(__file__).resolve().parents[1] / "src")
HEADER = "timestamp_s,competition_pct,power_w"
CONTRACT = settings(max_examples=150, deadline=None)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (config, truth, sha256 of the trace CSV, of the binned and of the raw fit
# report as `procwatt fit` prints it, energy in joules).  The reports the
# earlier np.dot/scipy kernel gave for the same traces are kept in
# fit_reports_blas_kernel.json; test_reports_agree_with_the_blas_kernel bounds
# the difference.
PINNED = {
    "linear_noisy": (
        ProtocolConfig(baseline_load_q=5.0, noise_sigma=0.3, seed=42, cycles=2),
        LinearProfile(9.75, 0.055),
        "e05d6fcfd510ee9e7a8de0afb7c9d94deffe0d1b596c12b029047cc30ea1c52f",
        "0cfdb31e40cb698c9d9f39dcaa695c15f3f5773d042628f64abc0506e72c3c57",
        "c514815e98bbfa89d570124e678cdc9935dd991190ff7cad04710d7943c17812",
        178027.64919066007,
    ),
    "linear_noiseless": (
        ProtocolConfig(baseline_load_q=5.0, cycles=2),
        LinearProfile(9.75, 0.055),
        "492c74fd966059a2a56d7575406d38868e1339fe16d471e4cee2259d5f0566ff",
        "cf2f9157de3358ff91e8f2d3cdf906eeff2381405a40cfc2a4e9b849ebee4ffb",
        "78ae500ca876a60ee9289f36ac8864d542dcf9cd334d0179b08804442a7f4496",
        177958.1875,
    ),
    "nroot_noisy": (
        ProtocolConfig(
            baseline_load_q=13.0, noise_sigma=4.0, seed=7, cycles=3, step_pct=4.0, start_pct=1.0
        ),
        NRootProfile(7.0, 1.5, 3),
        "f16d4e0c9f647f8784f2c8e63300efe83ac58e9b5b45495b33d29b143fd54d67",
        "4ae5a5415a9b73f263a888b77472ebdb9af686f3b99052f7da6e06e638bc9a7c",
        "b0e34c3e4ff87670fcb6748e9dabc9d463f26595bf81c904cd2e7fd35c9c3490",
        281315.63281249977,
    ),
    "nroot_noiseless": (
        ProtocolConfig(baseline_load_q=50.0, cycles=1),
        NRootProfile(7.0, 1.5, 3),
        "cb4cc59bb6ee705976636cfbd88d88101dd7091ba3e5b691849d7d78b2c43c62",
        "e5920158d5c5785c56bc7d09b439e64f6370dcb00b193a591094fcfbec67c2ae",
        "b8773f2a727fbc6ca0c50064a5c5d6f33551d819237fe073249b3ce6e1d91a45",
        43335.63101425558,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_outputs_are_bit_identical(name):
    config, truth, trace_sha, binned_sha, raw_sha, energy = PINNED[name]
    text = trace_to_string(generate_trace(config, truth))
    assert sha256(text) == trace_sha
    samples = read_trace(io.StringIO(text)).samples
    for points, expected in ((aggregate(samples), binned_sha), (points_from_samples(samples), raw_sha)):
        selection = select_model(fit_linear(points), fit_nroot(points))
        assert sha256(json.dumps(selection_to_dict(selection), indent=2)) == expected
    assert integrate_energy(np.column_stack((samples.t, samples.power))) == energy


BLAS_KERNEL_REPORTS = json.loads((Path(__file__).parent / "fit_reports_blas_kernel.json").read_text())
# fields computed from the residuals; on an exact fit they are rounding noise
RESIDUAL_FIELDS = ("sse", "std_errors", "t_statistics", "p_values")


def assert_close(new, old, rel, abs_):
    if isinstance(old, dict):
        assert new.keys() == old.keys()
        for key in old:
            assert_close(new[key], old[key], rel, abs_)
    elif isinstance(old, list):
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert_close(a, b, rel, abs_)
    elif isinstance(old, float):
        assert new == pytest.approx(old, rel=rel, abs=abs_)
    else:
        assert new == old  # chosen, kind, n, n_points


@pytest.mark.parametrize("key", sorted(BLAS_KERNEL_REPORTS))
def test_reports_agree_with_the_blas_kernel(key):
    name, kind = key.split("/")
    config, truth = PINNED[name][:2]
    samples = generate_trace(config, truth).samples
    points = aggregate(samples) if kind == "binned" else points_from_samples(samples)
    new = selection_to_dict(select_model(fit_linear(points), fit_nroot(points)))
    old = BLAS_KERNEL_REPORTS[key]
    assert new["chosen"] == old["chosen"]
    assert new["margin"] == pytest.approx(old["margin"], rel=0, abs=1e-12)
    for family in ("linear_report", "nroot_report"):
        new_report, old_report = new[family], old[family]
        if old_report["r_squared"] == 1.0:
            # an exact fit: SSE is rounding noise (the earlier kernel's BLAS
            # dot products gave 6e-30 where the batched kernel gives 0.0), and
            # so are the standard errors, t and p derived from it
            assert new_report["r_squared"] == 1.0
            assert max(new_report["sse"], old_report["sse"]) < 1e-24
            new_report, old_report = (
                {k: v for k, v in r.items() if k not in RESIDUAL_FIELDS}
                for r in (new_report, old_report)
            )
        assert_close(new_report, old_report, rel=1e-12, abs_=0.0)


# --- reference implementations: one Python object per sample ---------------


def reference_generate(config, truth):
    levels = competition_levels(config)
    per_level = samples_per_level(config)
    level_power = np.array([evaluate(truth, float(lv)) for lv in levels])
    samples = []
    index = 0
    for cycle in range(config.cycles):
        if config.noise_sigma > 0:
            noise = _cycle_rng(config.seed, cycle).normal(
                0.0, config.noise_sigma, size=(levels.size, per_level)
            )
            powers = np.maximum(level_power[:, None] + noise, 0.0)
        else:
            powers = np.broadcast_to(level_power[:, None], (levels.size, per_level))
        for li, level in enumerate(levels):
            for j in range(per_level):
                samples.append(
                    TraceSample(
                        t=index * config.sample_interval_seconds,
                        competition=float(level),
                        power=float(powers[li][j]),
                    )
                )
                index += 1
    return samples


def reference_csv(samples):
    return HEADER + "\n" + "".join(f"{s.t!r},{s.competition!r},{s.power!r}\n" for s in samples)


def reference_aggregate(samples, bin_width):
    bins = {}
    for s in samples:
        bins.setdefault(int(math.floor(s.competition / bin_width)), []).append(s)
    points = []
    for _, members in sorted(bins.items()):
        comps = np.sort(np.array([m.competition for m in members]))
        powers = np.sort(np.array([m.power for m in members]))
        points.append(
            AggregatedPoint(
                competition=float(np.mean(comps)),
                power=float(np.median(powers)),
                count=len(members),
                dispersion=float(np.std(powers)),
            )
        )
    return points


def reference_points(samples):
    return [
        AggregatedPoint(competition=s.competition, power=s.power, count=1, dispersion=0.0)
        for s in sorted(samples, key=lambda s: (s.competition, s.power, s.t))
    ]


def reference_field(raw, line_no, column, name):
    text = raw.strip()
    if "_" in text or not text:
        raise TraceParseError(f"cannot parse {name} from {raw!r}", line_no, column)
    try:
        value = float(text)
    except ValueError:
        raise TraceParseError(f"cannot parse {name} from {raw!r}", line_no, column) from None
    if not math.isfinite(value):
        raise TraceValidationError(f"{name} must be finite, got {raw!r}", line_no)
    return value


def reference_read(stream, columns=None):
    """read_trace for a well-formed header, parsing the rows one TraceSample at a time."""
    header_line, *lines = stream.readlines()
    header = [h.strip() for h in header_line.rstrip("\r\n").split(",")]
    names = traceio.CANONICAL_COLUMNS
    indices = {name: header.index((columns or {}).get(name, name)) for name in names}
    width = len(header)
    samples = []
    last_t = None
    for line_no, raw_line in enumerate(lines, start=2):
        line = raw_line.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise TraceParseError(
                f"expected {width} fields, got {len(fields)}", line_no, min(len(fields), width) + 1
            )
        t, comp, power = (
            reference_field(fields[indices[name]], line_no, indices[name] + 1, name) for name in names
        )
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
    return TraceFile(samples=samples)


# --- strategies -------------------------------------------------------------

# shortest-repr boundaries (1e-5 and 1e16 switch to exponent notation), signed
# zero and subnormals
SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-06,
           1e16, 9999999999999998.0, 0.1, 1.0 / 3.0]
finite = st.floats(allow_nan=False, allow_infinity=False)
competitions = st.one_of(
    st.sampled_from([x for x in SPECIAL if 0.0 <= x <= 100.0] + [100.0, 95.0, 5.0]),
    st.floats(min_value=0.0, max_value=100.0),
)
powers = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=0.0, allow_infinity=False))


@st.composite
def columns(draw, max_size=25):
    n = draw(st.integers(min_value=0, max_value=max_size))
    t = sorted(draw(st.lists(st.one_of(st.sampled_from(SPECIAL), finite), min_size=n, max_size=n)))
    comp = draw(st.lists(competitions, min_size=n, max_size=n))
    power = draw(st.lists(powers, min_size=n, max_size=n))
    return t, comp, power


@st.composite
def configs(draw):
    q = draw(st.floats(min_value=1.0, max_value=99.0))
    interval = draw(st.sampled_from([0.5, 1.0, 5.0, 0.1]))
    return ProtocolConfig(
        baseline_load_q=q,
        noise_sigma=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0))),
        seed=draw(st.integers(min_value=-(2**70), max_value=2**70)),
        start_pct=draw(st.floats(min_value=0.0, max_value=1.0)) * (100.0 - q),
        step_pct=draw(st.floats(min_value=2.0, max_value=60.0)),
        sample_interval_seconds=interval,
        dwell_seconds=interval * draw(st.integers(min_value=1, max_value=4)),
        cycles=draw(st.integers(min_value=1, max_value=3)),
    )


# non-negative on [0, 100], so noiseless traces satisfy the sample contract
truths = st.one_of(
    st.builds(LinearProfile, st.floats(0.0, 20.0), st.floats(0.0, 0.5)),
    st.builds(NRootProfile, st.floats(0.0, 20.0), st.floats(0.0, 3.0), st.integers(2, 8)),
)


# --- properties -------------------------------------------------------------


@CONTRACT
@given(configs(), truths)
def test_generate_trace_matches_per_sample_reference(config, truth):
    trace = generate_trace(config, truth)
    reference = reference_generate(config, truth)
    assert trace.samples == reference
    assert trace_to_string(trace) == reference_csv(reference)


def column_bytes(samples):
    return [col.tobytes() for col in (samples.t, samples.competition, samples.power)]


@CONTRACT
@given(columns())
def test_write_then_read_is_the_identity(cols):
    samples = TraceSamples(*cols)
    text = trace_to_string(TraceFile(samples=samples))
    assert text == reference_csv(samples)
    again = read_trace(io.StringIO(text)).samples
    assert column_bytes(again) == column_bytes(samples)  # bitwise: keeps -0.0


TOKENS = ["1_0", "nan", "inf", "-inf", "", " ", "abc", "0x10", "1e400", "-1", "150",
          " 5 ", "1e-5", "-0.0", "5e-324", "١٢", "\r", "5\r", " \r", "\r5"]
REMAP_HEADER = "node,watts,timestamp_s,cpu"
REMAP = {"power_w": "watts", "competition_pct": "cpu"}


@st.composite
def malformed_traces(draw):
    """A small valid trace with a few corruptions; returns (text, columns)."""
    n = draw(st.integers(min_value=0, max_value=8))
    t = np.cumsum(draw(st.lists(st.sampled_from([0.0, 0.5, 5.0]), min_size=n, max_size=n)))
    rows = [[repr(float(x)), repr(draw(competitions)), repr(draw(powers))] for x in t]
    remap = draw(st.booleans())
    t_column = 2 if remap else 0
    if remap:
        node = st.sampled_from(["w1", "w_1", "nan", "", "a b"])
        rows = [[draw(node), r[2], r[0], r[1]] for r in rows]
    lines = [",".join(r) for r in rows]
    for kind in draw(st.lists(st.sampled_from(["blank", "token", "drop", "extra", "decrease"]),
                              max_size=3)):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fields = lines[i].split(",")
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
            continue
        if kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
        elif kind == "drop":
            fields.pop()
        elif kind == "extra":
            fields.append("1.0")
        elif len(fields) > t_column:
            fields[t_column] = "-1e9"
        lines[i] = ",".join(fields)
    header = REMAP_HEADER if remap else HEADER
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join([header, *lines]) + draw(st.sampled_from([newline, ""]))
    return text, REMAP if remap else None


def outcome(read, text, columns):
    try:
        samples = read(io.StringIO(text), columns=columns).samples
    except ProcwattError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return column_bytes(samples)


@CONTRACT
@given(malformed_traces())
# a short row then a long one: the fields realign, but the row counts differ
@example((HEADER + "\n0.0,5.0\n1.0,5.0,9.0,2.0\n", None))
# one header column for all three names: a blank line has the one-column comma count
@example(("x\n1.0\n\n2.0\n", dict.fromkeys(traceio.CANONICAL_COLUMNS, "x")))
@example(("x\r\n1.0\r\n \r\n2.0", dict.fromkeys(traceio.CANONICAL_COLUMNS, "x")))
def test_bulk_parse_agrees_with_line_by_line(case):
    text, columns = case
    assert outcome(read_trace, text, columns) == outcome(reference_read, text, columns)


# --- chunk boundaries: the same properties with CHUNK_ROWS patched small ------


def chunked(rows):
    """traceio reading and writing ``rows`` lines at a time."""
    return mock.patch.object(traceio, "CHUNK_ROWS", rows)


SMALL_CHUNKS = pytest.mark.parametrize("chunk_rows", [1, 2, 3])


@SMALL_CHUNKS
@CONTRACT
@given(columns())
def test_write_then_read_is_the_identity_in_small_chunks(chunk_rows, cols):
    samples = TraceSamples(*cols)
    with chunked(chunk_rows):
        text = trace_to_string(TraceFile(samples=samples))
        sink = io.StringIO()
        write_trace(TraceFile(samples=samples), sink)
        again = read_trace(io.StringIO(text)).samples
    assert text == sink.getvalue() == reference_csv(samples)
    assert column_bytes(again) == column_bytes(samples)


@SMALL_CHUNKS
@CONTRACT
@given(malformed_traces())
def test_bulk_parse_agrees_with_line_by_line_in_small_chunks(chunk_rows, case):
    text, columns = case
    with chunked(chunk_rows):
        assert outcome(read_trace, text, columns) == outcome(reference_read, text, columns)


@pytest.mark.parametrize(
    "rows, error",
    [
        (["2.0,5.0"], (TraceParseError, "line 4, column 3: expected 3 fields, got 2", 4, 3)),
        (["2.0,x,9.0"], (TraceParseError, "line 4, column 2: cannot parse competition_pct from 'x'", 4, 2)),
        (["0.5,5.0,9.0"], (TraceValidationError, "line 4: timestamp 0.5 decreases (previous 1.0)", 4, None)),
        # a chunk of blank lines carries the last timestamp on to the next one
        (["", " ", "0.5,5.0,9.0"], (TraceValidationError, "line 6: timestamp 0.5 decreases (previous 1.0)", 6, None)),
        (["", "\t", "2.0,5.0"], (TraceParseError, "line 6, column 3: expected 3 fields, got 2", 6, 3)),
    ],
    ids=["field_count", "parse", "order", "order_after_blank_chunk", "count_after_blank_chunk"],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_errors_on_the_first_line_of_a_chunk(rows, error, newline):
    text = newline.join([HEADER, "0.0,5.0,9.0", "1.0,5.0,9.0", *rows]) + newline
    with chunked(2):
        assert outcome(read_trace, text, None) == outcome(reference_read, text, None) == error


@SMALL_CHUNKS
@pytest.mark.parametrize("body", ["", "\n", "\r\n \r\n", "\n\n\n\n"], ids=["none", "lf", "crlf", "lf4"])
def test_header_only_files_read_as_empty_in_any_chunking(chunk_rows, body):
    with chunked(chunk_rows):
        assert len(read_trace(io.StringIO(HEADER + body)).samples) == 0
        assert trace_to_string(TraceFile(samples=[])) == HEADER + "\n"


@SMALL_CHUNKS
def test_blank_lines_and_crlf_at_chunk_boundaries_read_like_one_chunk(chunk_rows):
    rows = ["0.0,5.0,9.0", "", "1.0,5.0,9.5", " ", "\t", "2.0,7.0,9.0", "", "3.0,7.0,9.25", ""]
    text = "\r\n".join([HEADER, *rows]) + "\r\n"
    whole = read_trace(io.StringIO(text)).samples
    with chunked(chunk_rows):
        assert column_bytes(read_trace(io.StringIO(text)).samples) == column_bytes(whole)
    assert len(whole) == 4


@pytest.mark.parametrize("extra", [0, 1])
def test_a_full_chunk_and_one_row_more_round_trip(extra):
    """At the real CHUNK_ROWS: a body of exactly one chunk, and one row into the next."""
    n = traceio.CHUNK_ROWS + extra
    samples = TraceSamples(np.arange(n) * 0.5, np.full(n, 5.0), 9.0 + np.arange(n) % 7 / 3)
    text = trace_to_string(TraceFile(samples=samples))
    assert text == reference_csv(samples)
    assert len(list(traceio._csv_chunks(samples))) == 2 + extra  # the header, then the rows
    assert column_bytes(read_trace(io.StringIO(text)).samples) == column_bytes(samples)
    # the last row goes back in time: it is the first row of the second chunk when extra is 1
    lines = text.splitlines()
    lines[-1] = "0.25" + lines[-1][lines[-1].index(","):]
    bad = "\n".join(lines) + "\n"
    previous = repr((n - 2) * 0.5)
    message = f"line {n + 1}: timestamp 0.25 decreases (previous {previous})"
    assert outcome(read_trace, bad, None) == (TraceValidationError, message, n + 1, None)


def simulated_text():
    config = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.4, seed=9, cycles=1)
    return trace_to_string(generate_trace(config, LinearProfile(9.75, 0.055)))


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text + "\n",
        lambda text: text + "\r\n \r\n",
    ],
    ids=["crlf", "trailing_blank", "crlf_trailing_blanks"],
)
def test_line_endings_and_blank_lines_read_like_lf(rewrite):
    text = simulated_text()
    lf = read_trace(io.StringIO(text)).samples
    assert column_bytes(read_trace(io.StringIO(rewrite(text))).samples) == column_bytes(lf)


def test_reading_builds_no_sample_per_row():
    text = simulated_text()
    with mock.patch.object(TraceSample, "__post_init__", side_effect=AssertionError("one per row")):
        blank = HEADER + "\n\n" + text.split("\n", 1)[1] + "\n"
        for variant in (text, text.replace("\n", "\r\n"), blank):
            assert len(read_trace(io.StringIO(variant)).samples) == 792


@st.composite
def samples_and_permutation(draw):
    comp = st.one_of(st.sampled_from([0.0, 4.999, 5.0, 10.0, 95.0, -0.0]), competitions)
    # bounded so that the per-bin variance stays finite
    power = st.one_of(st.sampled_from(SPECIAL), st.floats(min_value=0.0, max_value=1e150))
    samples = draw(st.lists(st.builds(TraceSample, finite, comp, power), min_size=1, max_size=40))
    return samples, draw(st.permutations(samples))


@CONTRACT
@given(samples_and_permutation(), st.sampled_from([5.0, 0.7, 33.0, 1e-3]))
def test_aggregation_is_order_invariant_and_matches_reference(case, bin_width):
    samples, shuffled = case
    assert aggregate(shuffled, bin_width) == aggregate(samples, bin_width)
    assert aggregate(samples, bin_width) == reference_aggregate(samples, bin_width)
    assert points_from_samples(shuffled) == points_from_samples(samples)
    assert points_from_samples(samples) == reference_points(samples)


def lexsort_points(samples):
    """points_from_samples by one indirect lexsort on (competition, power, t)."""
    order = np.lexsort((samples.t, samples.power, samples.competition))
    ones, zeros = np.ones(order.size, dtype=np.int64), np.zeros(order.size)
    return AggregatedPoints(samples.competition[order], samples.power[order], ones, zeros)


def lexsort_aggregate(samples, bin_width):
    """aggregate by lexsorts on (bin, competition) and (bin, power)."""
    keys = np.floor(samples.competition / bin_width)
    by_competition = np.lexsort((samples.competition, keys))
    comps = samples.competition[by_competition]
    powers = samples.power[np.lexsort((samples.power, keys))]
    keys = keys[by_competition]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]).tolist()
    bins = [
        (np.mean(comps[lo:hi]), np.median(powers[lo:hi]), hi - lo, np.std(powers[lo:hi]))
        for lo, hi in zip(starts, starts[1:] + [keys.size])
    ]
    return AggregatedPoints(*zip(*bins))


@st.composite
def repetitive_columns(draw, comp_values=competitions,
                       power_values=st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1e150))):
    """(t, competition, power) rows drawn from small pools of values, both signs
    of zero in both value columns when the draw says so, timestamps unsorted
    and repeated, and up to a few thousand rows, where numpy sorts with SIMD
    kernels."""
    n = draw(st.sampled_from([1, 2, 3, 17, 200, 2048, 4099]))
    zeros = [0.0, -0.0] if draw(st.booleans()) else []
    comp_pool = draw(st.lists(comp_values, min_size=1, max_size=6)) + zeros
    power_pool = draw(st.lists(power_values, min_size=1, max_size=6)) + zeros
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.integers(0, max(1, n // 3), size=n).astype(np.float64)
    return t, rng.choice(comp_pool, size=n), rng.choice(power_pool, size=n)


def point_bytes(points):
    return [col.tobytes() for col in (points.competition, points.power, points.count,
                                      points.dispersion)]


@CONTRACT
@given(repetitive_columns(), st.sampled_from([5.0, 0.7, 33.0, 1e-3]))
def test_sorts_by_value_match_the_lexsorts_bit_for_bit(cols, bin_width):
    samples = TraceSamples(*cols)
    # bytes, not ==, which would take -0.0 for 0.0
    assert point_bytes(points_from_samples(samples)) == point_bytes(lexsort_points(samples))
    assert point_bytes(aggregate(samples, bin_width)) == point_bytes(
        lexsort_aggregate(samples, bin_width))


@CONTRACT
@given(repetitive_columns(st.one_of(competitions, st.floats()), st.one_of(powers, st.floats())))
def test_raw_points_keep_the_point_rules(cols):
    # points_from_samples builds its result unchecked: any trace the sample rules
    # admit, out-of-range values included, must keep the point rules
    try:
        points = points_from_samples(TraceSamples(*cols))
    except InputError:
        return
    assert all(mask.all() for _, mask, _ in AggregatedPoints._rules(*points._columns))


# --- the TraceSamples sequence ---------------------------------------------


class TestTraceSamples:
    def test_sequence_of_trace_samples(self):
        rows = [TraceSample(0.0, 5.0, 9.2), TraceSample(5.0, 10.0, 9.4), TraceSample(10.0, 10.0, 9.5)]
        samples = TraceSamples([0.0, 5.0, 10.0], [5.0, 10.0, 10.0], [9.2, 9.4, 9.5])
        assert len(samples) == 3
        assert list(samples) == rows
        assert samples[-1] == rows[-1] and type(samples[0]) is TraceSample
        assert samples[1:] == rows[1:] and samples == tuple(rows)
        assert samples != rows[:2] and samples != [*rows[:2], TraceSample(10.0, 10.0, 9.6)]
        assert samples == TraceSamples.of(rows) and samples != TraceSamples.of(rows[:2])
        assert TraceFile(samples=rows).samples == samples

    def test_columns_are_read_only_copies(self):
        t = np.array([0.0, 1.0])
        samples = TraceSamples(t, [5.0, 5.0], [1.0, 2.0])
        t[0] = 7.0
        assert samples.t[0] == 0.0
        with pytest.raises(ValueError):
            samples.power[0] = 3.0

    @pytest.mark.parametrize(
        "cols, message",
        [
            (([0.0, 1.0], [5.0, 150.0], [1.0, 1.0]), "sample 1: competition must lie in [0, 100]"),
            (([0.0, math.inf], [5.0, 5.0], [1.0, 1.0]), "sample 1: t must be finite"),
            (([0.0], [5.0], [-0.5]), "sample 0: power must be >= 0"),
            (([0.0, 1.0], [5.0], [1.0, 1.0]), "equal length"),
            (([[0.0]], [[5.0]], [[1.0]]), "one-dimensional"),
        ],
    )
    def test_invalid_columns_rejected(self, cols, message):
        with pytest.raises(InputError, match=re.escape(message)):
            TraceSamples(*cols)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.0, 150, 1.0), "competition must lie in [0, 100], got 150.0"),
            ((math.nan, 5.0, 1.0), "t must be finite, got nan"),
            ((0.0, 5.0, -0.5), "power must be >= 0, got -0.5"),
        ],
    )
    def test_a_sample_keeps_the_column_rules(self, row, message):
        with pytest.raises(InputError) as err:
            TraceSample(*row)
        assert str(err.value) == message

    def test_a_sample_holds_the_floats_it_converts_to(self):
        sample = TraceSample("5", 10, np.float32(9.5))
        values = (sample.t, sample.competition, sample.power)
        assert values == (5.0, 10.0, 9.5) and all(type(v) is float for v in values)
        assert TraceSamples.of([sample]) == [sample]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TraceSamples(["a"], [1.0], [1.0]), "t does not convert to float64"),
        (lambda: TraceSample("a", 1.0, 1.0), "t does not convert to float64"),
        (lambda: AggregatedPoints([1.0], [1.0], [1.5], [0.0]),
         "count does not convert to int64: 1.5 is not an integer"),
    ],
    ids=["trace_samples", "trace_sample", "aggregated_points"],
)
def test_values_that_do_not_convert_are_named(build, message):
    with pytest.raises(InputError, match=re.escape(message)):
        build()


# --- the AggregatedPoints sequence ------------------------------------------


class TestAggregatedPoints:
    ROWS = [AggregatedPoint(0.0, 9.2, 3, 0.1), AggregatedPoint(5.0, 9.4, 1, 0.0),
            AggregatedPoint(10.0, 9.5, 2, 0.05)]

    def test_sequence_of_points(self):
        rows = self.ROWS
        points = AggregatedPoints([0.0, 5.0, 10.0], [9.2, 9.4, 9.5], [3, 1, 2], [0.1, 0.0, 0.05])
        assert len(points) == 3
        assert list(points) == rows
        assert points[-1] == rows[-1] and type(points[0]) is AggregatedPoint
        assert type(points[0].count) is int and type(points[0].power) is float
        assert points[1:] == rows[1:] and points == tuple(rows)
        assert points != rows[:2] and points != [*rows[:2], AggregatedPoint(10.0, 9.5, 2, 0.06)]
        assert points == AggregatedPoints.of(rows) and points != AggregatedPoints.of(rows[:2])
        assert AggregatedPoints.of(points) is points
        assert points != TraceSamples([0.0, 5.0, 10.0], [9.2, 9.4, 9.5], [3, 1, 2])

    def test_columns_are_typed_read_only_copies(self):
        power = np.array([9.2, 9.4])
        points = AggregatedPoints([0.0, 5.0], power, [3, 1], [0.1, 0.0])
        power[0] = 1.0
        assert points.power[0] == 9.2
        assert points.count.dtype == np.int64 and points.dispersion.dtype == np.float64
        with pytest.raises(ValueError):
            points.competition[0] = 3.0

    @pytest.mark.parametrize(
        "cols, message",
        [
            (([0.0, 1.0], [5.0], [1, 1], [0.0, 0.0]), "equal length"),
            (([[0.0]], [[5.0]], [[1]], [[0.0]]), "one-dimensional"),
        ],
    )
    def test_invalid_columns_rejected(self, cols, message):
        with pytest.raises(InputError, match=message):
            AggregatedPoints(*cols)

    @pytest.mark.parametrize(
        "cols, message",
        [
            (([0.0, -1.0], [5.0, 5.0], [1, 1], [0.0, 0.0]), "point 1: competition must lie in [0, 100], got -1.0"),
            (([0.0, 100.5], [5.0, 5.0], [1, 1], [0.0, 0.0]), "point 1: competition must lie in [0, 100]"),
            (([math.nan], [5.0], [1], [0.0]), "point 0: competition must lie in [0, 100], got nan"),
            (([0.0, 5.0], [5.0, math.nan], [1, 1], [0.0, 0.0]), "point 1: power must be finite and >= 0, got nan"),
            (([0.0], [-0.5], [1], [0.0]), "point 0: power must be finite and >= 0"),
            (([0.0], [math.inf], [1], [0.0]), "point 0: power must be finite and >= 0"),
            (([0.0, 5.0], [5.0, 5.0], [1, 0], [0.0, 0.0]), "point 1: count must be >= 1, got 0"),
            (([0.0], [5.0], [1], [math.inf]), "point 0: dispersion must be finite and >= 0"),
            (([0.0], [5.0], [1], [-0.1]), "point 0: dispersion must be finite and >= 0"),
        ],
    )
    def test_out_of_contract_values_rejected(self, cols, message):
        with pytest.raises(InputError, match=re.escape(message)):
            AggregatedPoints(*cols)

    @pytest.mark.parametrize("fit", [fit_linear, fit_nroot])
    @pytest.mark.parametrize(
        "index, bad, message",
        [
            (3, AggregatedPoint(15.0, math.nan, 1, 0.0), "point 3: power must be finite"),
            (0, AggregatedPoint(-5.0, 9.0, 1, 0.0), "point 0: competition must lie in [0, 100]"),
        ],
    )
    def test_fitters_name_the_bad_point(self, fit, index, bad, message):
        rows = [AggregatedPoint(5.0 * i, 9.0 + 0.05 * i, 1, 0.0) for i in range(10)]
        rows[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=re.escape(message)):
                fit(rows)

    def test_producers_return_columns(self):
        samples = TraceSamples([0.0, 1.0, 2.0, 3.0], [10.0, 0.0, 10.0, 0.0], [9.0, 8.0, 9.5, 8.5])
        binned = aggregate(samples)
        assert isinstance(binned, AggregatedPoints)
        assert binned == [AggregatedPoint(0.0, 8.25, 2, 0.25), AggregatedPoint(10.0, 9.25, 2, 0.25)]
        raw = points_from_samples(samples)
        assert isinstance(raw, AggregatedPoints)
        assert raw.competition.tolist() == [0.0, 0.0, 10.0, 10.0]
        assert raw.power.tolist() == [8.0, 8.5, 9.0, 9.5]
        assert raw.count.tolist() == [1] * 4 and raw.dispersion.tolist() == [0.0] * 4

    def test_fitters_take_any_iterable_of_points(self):
        rows = [AggregatedPoint(p, 9.0 + 0.05 * p + (p % 3) * 0.01, 1, 0.0) for p in range(0, 50, 5)]
        columns = AggregatedPoints.of(rows)
        for fit in (fit_linear, fit_nroot):
            assert fit(rows) == fit(columns) == fit(iter(rows)) == fit(tuple(rows))


@CONTRACT
@given(samples_and_permutation())
def test_raw_fits_are_order_invariant(case):
    samples, shuffled = case

    def fits(s):
        points = points_from_samples(s)
        try:
            reports = fit_linear(points), fit_nroot(points)
        except ProcwattError as exc:
            return type(exc)
        return json.dumps([fit_report_to_dict(r) for r in reports])

    assert fits(shuffled) == fits(samples)


def test_importing_the_cli_does_not_load_scipy():
    code = (
        "import sys, procwatt.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
