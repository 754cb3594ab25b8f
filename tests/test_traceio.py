import io
import tracemalloc

import pytest

from procwatt import (
    LinearProfile,
    ProtocolConfig,
    TraceFile,
    TraceSample,
    generate_trace,
    read_trace,
    trace_to_string,
    write_trace,
)
from procwatt.errors import TraceFormatError, TraceParseError, TraceValidationError

HEADER = "timestamp_s,competition_pct,power_w\n"


def read_text(text, **kwargs):
    return read_trace(io.StringIO(text), **kwargs)


class TestRead:
    def test_single_row(self):
        trace = read_text(HEADER + "0.0,5,9.2\n")
        assert trace.samples == [TraceSample(0.0, 5.0, 9.2)]

    def test_header_only_is_valid_empty_trace(self):
        assert read_text(HEADER).samples == []

    def test_blank_lines_ignored_but_counted(self):
        trace = read_text(HEADER + "\n0.0,5,9.2\n\n1.0,5,9.3\n")
        assert len(trace.samples) == 2

    def test_whitespace_around_fields_is_fine(self):
        trace = read_text(HEADER + " 0.0 , 5 , 9.2 \n")
        assert trace.samples[0].power == 9.2

    def test_missing_header_rejected(self):
        with pytest.raises(TraceFormatError) as err:
            read_text("0.0,5,9.2\n")
        assert err.value.line == 1

    def test_reordered_header_rejected_without_mapping(self):
        with pytest.raises(TraceFormatError) as err:
            read_text("competition_pct,timestamp_s,power_w\n")
        assert err.value.line == 1

    def test_empty_file_rejected(self):
        with pytest.raises(TraceFormatError) as err:
            read_text("")
        assert err.value.line == 1

    def test_non_numeric_field_location(self):
        with pytest.raises(TraceParseError) as err:
            read_text(HEADER + "0.0,abc,9.2\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError) as err:
            read_text(HEADER + "0.0,5,9.2\n1.0,5\n")
        assert err.value.line == 3

    def test_underscores_rejected(self):
        # float('1_0') would silently read as 10; refuse the separator instead
        with pytest.raises(TraceParseError):
            read_text(HEADER + "0.0,5,1_0\n")

    def test_non_finite_rejected(self):
        with pytest.raises(TraceValidationError) as err:
            read_text(HEADER + "0.0,5,nan\n")
        assert err.value.line == 2

    def test_competition_out_of_range(self):
        with pytest.raises(TraceValidationError) as err:
            read_text(HEADER + "0.0,5,9.2\n1.0,150,9.2\n")
        assert err.value.line == 3

    def test_negative_power(self):
        with pytest.raises(TraceValidationError) as err:
            read_text(HEADER + "0.0,5,-0.5\n")
        assert err.value.line == 2

    def test_decreasing_timestamp(self):
        with pytest.raises(TraceValidationError) as err:
            read_text(HEADER + "5.0,5,9.2\n4.0,5,9.2\n")
        assert err.value.line == 3

    def test_equal_timestamps_allowed(self):
        trace = read_text(HEADER + "5.0,5,9.2\n5.0,5,9.3\n")
        assert len(trace.samples) == 2

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "0.0,5,9.2\n")
        assert len(read_trace(path).samples) == 1

    def test_crlf_line_endings(self):
        trace = read_text("timestamp_s,competition_pct,power_w\r\n0.0,5,9.2\r\n")
        assert trace.samples == [TraceSample(0.0, 5.0, 9.2)]


class TestColumnRemap:
    def test_renamed_and_reordered_columns(self):
        text = "watts,cpu_pct,time\n9.2,5,0.0\n9.3,10,1.0\n"
        trace = read_text(
            text,
            columns={
                "timestamp_s": "time",
                "competition_pct": "cpu_pct",
                "power_w": "watts",
            },
        )
        assert trace.samples[0] == TraceSample(0.0, 5.0, 9.2)
        assert trace.samples[1].competition == 10.0

    def test_extra_columns_ignored(self):
        text = "timestamp_s,node,competition_pct,power_w\n0.0,w1,5,9.2\n"
        trace = read_text(text, columns={})
        assert trace.samples[0].power == 9.2

    def test_missing_mapped_column_rejected(self):
        with pytest.raises(TraceFormatError):
            read_text("time,power_w\n", columns={"timestamp_s": "ts"})

    def test_unknown_canonical_name_rejected(self):
        with pytest.raises(TraceFormatError):
            read_text(HEADER, columns={"wattage": "power_w"})


class TestWrite:
    def test_empty_trace_is_header_only(self):
        assert trace_to_string(TraceFile(samples=[])) == HEADER

    def test_single_sample_two_lines(self):
        text = trace_to_string(TraceFile(samples=[TraceSample(0.0, 5.0, 9.2)]))
        assert text == HEADER + "0.0,5.0,9.2\n"

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        write_trace(TraceFile(samples=[TraceSample(0.0, 5.0, 9.2)]), path)
        assert path.read_text().startswith(HEADER)

    def test_round_trip_simulated_trace_is_value_exact(self):
        # q=50 at one cycle: 11 levels x 72 samples = 792 samples
        config = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.4, seed=9, cycles=1)
        trace = generate_trace(config, LinearProfile(9.75, 0.055))
        assert len(trace.samples) == 792
        again = read_text(trace_to_string(trace))
        assert again.samples == trace.samples

    def test_round_trip_awkward_floats(self):
        samples = [
            TraceSample(0.1, 1.0 / 3.0, 9.000000001),
            TraceSample(0.30000000000000004, 66.66666666666667, 1e-12),
        ]
        again = read_text(trace_to_string(TraceFile(samples=samples)))
        assert again.samples == samples


@pytest.fixture(scope="module")
def campaign_trace(tmp_path_factory):
    """A campaign-sized trace: the default protocol over 80 cycles, 115,200 samples."""
    config = ProtocolConfig(baseline_load_q=5.0, noise_sigma=0.3, seed=1, cycles=80)
    trace = generate_trace(config, LinearProfile(9.75, 0.055))
    path = tmp_path_factory.mktemp("campaign") / "trace.csv"
    write_trace(trace, path)
    return trace, path


def peak_columns(call, n):
    """tracemalloc's peak during call(), in columns of n floats (8 * n bytes)."""
    call()  # a first call may allocate caches
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks on a 115,200-sample trace.  Parsing the whole body at once peaked at
    50 columns of N floats, and building the whole text before writing it at 23."""

    def test_read_holds_under_8_columns(self, campaign_trace):
        trace, path = campaign_trace
        assert len(trace.samples) == 115200
        assert peak_columns(lambda: read_trace(path), len(trace.samples)) < 8

    def test_to_string_holds_under_14_columns(self, campaign_trace):
        trace, _ = campaign_trace
        assert peak_columns(lambda: trace_to_string(trace), len(trace.samples)) < 14

    def test_write_holds_under_4_columns(self, campaign_trace, tmp_path):
        trace, path = campaign_trace
        out = tmp_path / "again.csv"
        assert peak_columns(lambda: write_trace(trace, out), len(trace.samples)) < 4
        assert out.read_bytes() == path.read_bytes() == trace_to_string(trace).encode()
