import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from procwatt import (
    ProtocolConfig,
    cli,
    errors,
    generate_trace,
    profile_from_dict,
    profiles,
    trace_to_string,
)
from procwatt.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

LINEAR_DOC = {"kind": "linear", "a": 9.75, "b": 0.055}
NROOT_DOC = {"kind": "nroot", "c": 6.0, "d": 1.2, "n": 2}
CROSS_LINEAR_DOC = {"kind": "linear", "a": 8.0, "b": 0.05}

PROBLEM_DOC = {
    "machines": [
        {"id": "m1", "profile": {"kind": "linear", "a": 9.0, "b": 0.05}},
        {"id": "m2", "profile": {"kind": "nroot", "c": 8.0, "d": 0.5, "n": 2}},
    ],
    "vnfs": [
        {"id": "f1", "cpu_share": 20, "slice_id": "s1"},
        {"id": "f2", "cpu_share": 20, "slice_id": "s1"},
    ],
    "slices": ["s1"],
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "linear.json").write_text(json.dumps(LINEAR_DOC))
    (tmp_path / "nroot.json").write_text(json.dumps(NROOT_DOC))
    (tmp_path / "cross_linear.json").write_text(json.dumps(CROSS_LINEAR_DOC))
    (tmp_path / "problem.json").write_text(json.dumps(PROBLEM_DOC))
    return tmp_path


def simulate_trace(workdir, truth="linear.json", out="trace.csv", **extra):
    args = ["simulate", str(workdir / truth), "--out", str(workdir / out),
            "--q", "5", "--sigma", "0.3", "--seed", "42", "--cycles", "2",
            "--dwell", "60"]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    assert main(args) == 0
    return workdir / out


class TestSimulate:
    def test_writes_trace_and_prints_count(self, workdir, capsys):
        simulate_trace(workdir)
        out = capsys.readouterr().out
        # 2 cycles x 20 levels x 12 samples
        assert "480 samples" in out

    def test_default_protocol_count(self, workdir, capsys):
        args = ["simulate", str(workdir / "linear.json"), "--out", str(workdir / "big.csv"),
                "--q", "5", "--seed", "1"]
        assert main(args) == 0
        assert "11520 samples" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, workdir):
        a = simulate_trace(workdir, out="a.csv").read_bytes()
        b = simulate_trace(workdir, out="b.csv").read_bytes()
        assert a == b

    def test_stdout_mode(self, workdir, capsys):
        assert main(["simulate", str(workdir / "linear.json"), "--q", "50",
                     "--dwell", "10", "--cycles", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("timestamp_s,competition_pct,power_w\n")
        assert "samples" in captured.err

    def test_invalid_step_exits_2(self, workdir):
        assert main(["simulate", str(workdir / "linear.json"), "--step", "0"]) == 2

    def test_config_file(self, workdir, capsys):
        config = {"baseline_load_q": 50.0, "cycles": 1, "dwell_seconds": 10.0}
        (workdir / "config.json").write_text(json.dumps(config))
        assert main(["simulate", str(workdir / "linear.json"),
                     "--config", str(workdir / "config.json"),
                     "--out", str(workdir / "cfg.csv")]) == 0
        assert "22 samples" in capsys.readouterr().out

    def test_unknown_config_field_exits_2(self, workdir):
        (workdir / "config.json").write_text(json.dumps({"baseline_load_q": 5, "nope": 1}))
        assert main(["simulate", str(workdir / "linear.json"),
                     "--config", str(workdir / "config.json")]) == 2

    @pytest.mark.parametrize("field, value", [("cycles", 1.5), ("seed", 1.5), ("step_pct", "5")])
    def test_wrongly_typed_config_field_exits_2(self, workdir, field, value):
        config = {"baseline_load_q": 5, "noise_sigma": 0.3, field: value}
        (workdir / "config.json").write_text(json.dumps(config))
        assert main(["simulate", str(workdir / "linear.json"),
                     "--config", str(workdir / "config.json")]) == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [("dwell_seconds", 10**400, "beyond the float range"), ("cycles", 10**30, "samples")],
    )
    def test_huge_integer_config_field_exits_2(self, workdir, capsys, field, value, message):
        # rejected by ProtocolConfig, before generate_trace allocates anything
        (workdir / "config.json").write_text(json.dumps({"baseline_load_q": 5, field: value}))
        assert main(["simulate", str(workdir / "linear.json"),
                     "--config", str(workdir / "config.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_trace_beyond_the_address_space_exits_2(self, workdir):
        # 1e8 cycles x 20 levels x 72 samples: 3.456e12 bytes of columns, refused by a
        # 2 GB address-space limit on the child process alone
        resource = pytest.importorskip("resource")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 2 * 1024**3 if hard == resource.RLIM_INFINITY else min(2 * 1024**3, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

        proc = subprocess.run(
            [sys.executable, "-m", "procwatt", "simulate", str(workdir / "linear.json"),
             "--cycles", "100000000", "--out", str(workdir / "big.csv")],
            capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "error: the protocol asks for 144000000000 samples, 3456000000000 bytes as three "
            "float64 columns, more than this process can allocate\n"
        )
        assert not (workdir / "big.csv").exists()


class TestFit:
    def test_linear_trace_chooses_linear(self, workdir):
        trace = simulate_trace(workdir)
        report_path = workdir / "report.json"
        plot_path = workdir / "plot.csv"
        assert main(["fit", str(trace), "--out", str(report_path),
                     "--plot-csv", str(plot_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["chosen"] == "linear"
        assert report["linear_report"]["profile"]["a"] == pytest.approx(9.75, rel=0.02)
        header = plot_path.read_text().splitlines()[0]
        assert header == "competition_pct,observed_w,fitted_linear_w,fitted_nroot_w"

    def test_nroot_trace_chooses_nroot_with_n2(self, workdir):
        trace = simulate_trace(workdir, truth="nroot.json", out="root.csv", cycles=8)
        report_path = workdir / "report.json"
        assert main(["fit", str(trace), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["chosen"] == "nroot"
        assert report["nroot_report"]["profile"]["n"] == 2

    def test_empty_trace_exits_3(self, workdir):
        (workdir / "empty.csv").write_text("timestamp_s,competition_pct,power_w\n")
        assert main(["fit", str(workdir / "empty.csv")]) == 3

    def test_bad_header_exits_2(self, workdir):
        (workdir / "bad.csv").write_text("a,b\n1,2\n")
        assert main(["fit", str(workdir / "bad.csv")]) == 2

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tie_tolerance_exits_2(self, workdir, capsys, tolerance):
        trace = simulate_trace(workdir)
        capsys.readouterr()
        assert main(["fit", str(trace), "--tie-tolerance", tolerance]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tie_tolerance must be finite and >= 0, got ")

    def test_missing_file_exits_2(self, workdir):
        assert main(["fit", str(workdir / "missing.csv")]) == 2

    def test_bin_width_that_overflows_the_bin_keys_exits_2(self, workdir, capsys):
        trace = simulate_trace(workdir)
        capsys.readouterr()
        assert main(["fit", str(trace), "--bin-width", "1e-310"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bin_width must keep max(competition) / bin_width finite, got 1e-310\n"

    def test_failed_run_leaves_no_output_file(self, workdir):
        (workdir / "empty.csv").write_text("timestamp_s,competition_pct,power_w\n")
        out = workdir / "never.json"
        assert main(["fit", str(workdir / "empty.csv"), "--out", str(out)]) == 3
        assert not out.exists()

    def test_unwritable_out_dir_exits_2(self, workdir):
        trace = simulate_trace(workdir)
        out = workdir / "no-such-dir" / "report.json"
        assert main(["fit", str(trace), "--out", str(out)]) == 2
        assert not out.exists()

    def test_raw_mode(self, workdir, capsys):
        trace = simulate_trace(workdir)
        capsys.readouterr()
        assert main(["fit", str(trace), "--raw"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["linear_report"]["n_points"] == 480

    def test_csv_format_prints_plot_data(self, workdir, capsys):
        trace = simulate_trace(workdir)
        capsys.readouterr()
        assert main(["fit", str(trace), "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("competition_pct,observed_w")

    def test_column_remap(self, workdir):
        trace = simulate_trace(workdir)
        lines = trace.read_text().splitlines()
        lines[0] = "ts,cpu,watts"
        (workdir / "renamed.csv").write_text("\n".join(lines) + "\n")
        assert main(["fit", str(workdir / "renamed.csv"),
                     "--columns", "timestamp_s=ts,competition_pct=cpu,power_w=watts"]) == 0

    def test_reports_deterministic(self, workdir):
        trace = simulate_trace(workdir)
        for name in ("r1.json", "r2.json"):
            assert main(["fit", str(trace), "--out", str(workdir / name)]) == 0
        assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()


class TestCrossover:
    def test_worked_pair(self, workdir):
        out = workdir / "cross.json"
        assert main(["crossover", str(workdir / "cross_linear.json"),
                     str(workdir / "nroot.json"), "--out", str(out),
                     "--plot-csv", str(workdir / "cross.csv")]) == 0
        report = json.loads(out.read_text())
        assert report["crossovers"][0] == pytest.approx(3.2471, abs=1e-3)
        assert report["derivative_threshold"] == pytest.approx(144.0, rel=1e-12)
        plot_header = (workdir / "cross.csv").read_text().splitlines()[0]
        assert plot_header == "competition_pct,linear_w,nroot_w,difference_w"

    def test_no_crossover_is_exit_0(self, workdir, capsys):
        (workdir / "low.json").write_text(json.dumps({"kind": "linear", "a": 5.0, "b": 0.01}))
        (workdir / "high.json").write_text(json.dumps({"kind": "nroot", "c": 9.0, "d": 1.0, "n": 2}))
        assert main(["crossover", str(workdir / "low.json"), str(workdir / "high.json")]) == 0
        assert json.loads(capsys.readouterr().out)["crossovers"] == []

    def test_two_linear_profiles_exit_4(self, workdir):
        assert main(["crossover", str(workdir / "linear.json"),
                     str(workdir / "cross_linear.json")]) == 4

    def test_swapped_kinds_exit_4(self, workdir):
        assert main(["crossover", str(workdir / "nroot.json"),
                     str(workdir / "linear.json")]) == 4

    def test_kind_error_names_the_kind_given(self, workdir, capsys):
        assert main(["crossover", str(workdir / "nroot.json"), str(workdir / "linear.json")]) == 4
        assert capsys.readouterr().err == "error: expected a linear profile, got NRootProfile\n"

    def test_malformed_profile_exit_2(self, workdir):
        (workdir / "broken.json").write_text("{not json")
        assert main(["crossover", str(workdir / "broken.json"),
                     str(workdir / "nroot.json")]) == 2

    def test_numeric_string_parameter_exit_2_naming_the_field(self, workdir, capsys):
        (workdir / "string.json").write_text(json.dumps({"kind": "linear", "a": "9", "b": 0.05}))
        assert main(["crossover", str(workdir / "string.json"), str(workdir / "nroot.json")]) == 2
        assert capsys.readouterr().err.startswith("error: a must be finite, got '9'")

    @pytest.mark.parametrize("p_max", ["nan", "inf"])
    def test_non_finite_p_max_exit_2(self, workdir, capsys, p_max):
        assert main(["crossover", str(workdir / "cross_linear.json"),
                     str(workdir / "nroot.json"), "--p-max", p_max]) == 2
        assert "p_max must be finite" in capsys.readouterr().err

    def test_cells_beyond_the_bound_exit_2_naming_cells(self, workdir, capsys):
        plot = workdir / "plot.csv"
        assert main(["crossover", str(workdir / "cross_linear.json"), str(workdir / "nroot.json"),
                     "--cells", str(10**20), "--plot-csv", str(plot)]) == 2
        assert capsys.readouterr().err.startswith("error: cells must be an integer in [1, ")
        assert not plot.exists()


class TestPlace:
    def test_exhaustive_worked_instance(self, workdir, capsys):
        assert main(["place", str(workdir / "problem.json"), "--strategy", "exhaustive"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["total_power"] == 17.0
        assert result["feasible"] is True

    def test_greedy_same_total_here(self, workdir, capsys):
        assert main(["place", str(workdir / "problem.json"), "--strategy", "greedy"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["total_power"] == 17.0
        assert sorted(result["assignment"].values()) == ["m1", "m2"]

    def test_out_file_plus_summary(self, workdir, capsys):
        out = workdir / "placement.json"
        assert main(["place", str(workdir / "problem.json"), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "slice s1" in printed
        assert "total: 17.000000 W" in printed
        assert json.loads(out.read_text())["per_slice_power"] == {"s1": 17.0}

    def test_too_many_vnfs_exit_5(self, workdir):
        doc = dict(PROBLEM_DOC)
        doc["vnfs"] = [
            {"id": f"f{i}", "cpu_share": 5, "slice_id": "s1"} for i in range(10)
        ]
        (workdir / "big.json").write_text(json.dumps(doc))
        assert main(["place", str(workdir / "big.json"), "--strategy", "exhaustive"]) == 5

    def test_malformed_problem_exit_2(self, workdir):
        (workdir / "broken.json").write_text(json.dumps({"machines": []}))
        assert main(["place", str(workdir / "broken.json")]) == 2

    @pytest.mark.parametrize(
        "machine_field, vnf_field",
        [({"base_competition": "x"}, {}), ({"core_count": "two"}, {}),
         ({"core_count": 1e400}, {}), ({}, {"cpu_share": "x"})],
    )
    def test_non_numeric_problem_field_exit_2(self, workdir, capsys, machine_field, vnf_field):
        [field] = {**machine_field, **vnf_field}
        doc = json.loads(json.dumps(PROBLEM_DOC))
        doc["machines"][0].update(machine_field)
        doc["vnfs"][0].update(vnf_field)
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert main(["place", str(workdir / "bad.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must ")


    def test_numeric_vnf_id_exit_2_naming_the_field(self, workdir, capsys):
        doc = json.loads(json.dumps(PROBLEM_DOC))
        doc["vnfs"][0]["id"] = 5
        (workdir / "bad.json").write_text(json.dumps(doc))
        assert main(["place", str(workdir / "bad.json")]) == 2
        assert capsys.readouterr().err == "error: vnf id must be a string, got 5\n"


class TestEnergy:
    def test_constant_power(self, workdir, capsys):
        lines = ["timestamp_s,competition_pct,power_w"]
        lines += [f"{t},0,10.0" for t in range(0, 361, 60)]
        (workdir / "const.csv").write_text("\n".join(lines) + "\n")
        assert main(["energy", str(workdir / "const.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["energy_joules"] == 3600.0
        assert doc["mean_power_w"] == 10.0

    def test_ramp(self, workdir, capsys):
        lines = ["timestamp_s,competition_pct,power_w"]
        lines += [f"{t},0,{0.1 * t}" for t in range(0, 101, 10)]
        (workdir / "ramp.csv").write_text("\n".join(lines) + "\n")
        assert main(["energy", str(workdir / "ramp.csv")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["energy_joules"] == pytest.approx(500.0, rel=1e-12)

    def test_single_sample_exit_3(self, workdir):
        (workdir / "one.csv").write_text("timestamp_s,competition_pct,power_w\n0.0,0,10.0\n")
        assert main(["energy", str(workdir / "one.csv")]) == 3

    def test_header_only_trace_exit_3(self, workdir):
        (workdir / "empty.csv").write_text("timestamp_s,competition_pct,power_w\n")
        assert main(["energy", str(workdir / "empty.csv")]) == 3

    def test_repeated_timestamp_is_a_zero_width_step(self, workdir, capsys):
        lines = ["timestamp_s,competition_pct,power_w", "0,0,9.0", "0,0,9.5", "1,0,10.0"]
        (workdir / "repeated.csv").write_text("\n".join(lines) + "\n")
        assert main(["energy", str(workdir / "repeated.csv")]) == 0
        assert json.loads(capsys.readouterr().out) == {"energy_joules": 9.75, "mean_power_w": 9.75}

    def test_zero_span_exit_3(self, workdir, capsys):
        lines = ["timestamp_s,competition_pct,power_w", "3.0,0,9.0", "3.0,0,9.5"]
        (workdir / "instant.csv").write_text("\n".join(lines) + "\n")
        assert main(["energy", str(workdir / "instant.csv")]) == 3
        assert "zero duration" in capsys.readouterr().err

    def test_csv_format(self, workdir, capsys):
        lines = ["timestamp_s,competition_pct,power_w", "0,0,10.0", "10,0,10.0"]
        (workdir / "c.csv").write_text("\n".join(lines) + "\n")
        assert main(["energy", str(workdir / "c.csv"), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "energy_joules,mean_power_w\n100.0,10.0\n"


@pytest.mark.parametrize("argv", [["fit", "{dir}/trace.csv", "--raw"],
                                  ["crossover", "{dir}/cross_linear.json", "{dir}/nroot.json"]])
def test_plot_csv_is_built_only_when_written(workdir, monkeypatch, argv):
    simulate_trace(workdir)

    def refuse(*args):
        raise AssertionError("the plot CSV was built")

    monkeypatch.setattr(profiles, "evaluate", refuse)
    assert main([arg.format(dir=workdir) for arg in argv]) == 0


class TestEntryPoint:
    def test_module_invocation(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "procwatt", "place", str(workdir / "problem.json")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_power"] == 17.0


class TestProtocolFlags:
    FLAGS = ["--q", "20", "--sigma", "0.5", "--seed", "3", "--start", "1", "--step", "2.5",
             "--dwell", "20", "--interval", "2", "--cycles", "2"]

    def config_for(self, *argv):
        return cli._config_from_args(cli._build_parser().parse_args(["simulate", "t.json", *argv]))

    def test_every_field_has_a_flag(self):
        config = self.config_for(*self.FLAGS)
        assert config == ProtocolConfig(20.0, 0.5, 3, 1.0, 2.5, 20.0, 2.0, 2)
        default = ProtocolConfig(baseline_load_q=5.0)
        for field in dataclasses.fields(ProtocolConfig):
            assert getattr(config, field.name) != getattr(default, field.name), field.name

    def test_flags_not_given_take_the_field_defaults(self):
        assert self.config_for() == ProtocolConfig(baseline_load_q=5.0)
        assert self.config_for("--sigma", "0.5") == ProtocolConfig(5.0, noise_sigma=0.5)

    def test_no_protocol_flags_writes_the_default_trace(self, workdir):
        out = workdir / "default.csv"
        assert main(["simulate", str(workdir / "linear.json"), "--out", str(out)]) == 0
        trace = generate_trace(ProtocolConfig(baseline_load_q=5.0), profile_from_dict(LINEAR_DOC))
        assert out.read_bytes() == trace_to_string(trace).encode()

    def test_seed_flag_overrides_the_config_document(self, workdir):
        config = {"baseline_load_q": 50.0, "noise_sigma": 0.2, "seed": 3, "cycles": 1}
        (workdir / "config.json").write_text(json.dumps(config))
        args = cli._build_parser().parse_args(
            ["simulate", "t.json", "--config", str(workdir / "config.json"), "--seed", "7", "--q", "9"]
        )
        assert cli._config_from_args(args) == ProtocolConfig(**{**config, "seed": 7})

    def test_integral_float_cycles_in_the_config_document(self, workdir):
        (workdir / "config.json").write_text(json.dumps({"baseline_load_q": 50.0, "cycles": 2.0}))
        args = cli._build_parser().parse_args(
            ["simulate", "t.json", "--config", str(workdir / "config.json")]
        )
        assert cli._config_from_args(args).cycles == 2

    @pytest.mark.parametrize(
        "argv",
        [["fit", "trace.csv"], ["crossover", "lin.json", "root.json"], ["place", "problem.json"],
         ["energy", "trace.csv"]],
    )
    def test_only_simulate_takes_seed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _error_classes(cls=errors.ProcwattError):
    return [cls, *(sub for direct in cls.__subclasses__() for sub in _error_classes(direct))]


def _readme_exit_codes():
    """Error class name -> exit code, from README's exit-code table."""
    codes = {}
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `(\d)` \|", line)
        if row:
            for name in re.findall(r"`(\w+Error)`", line):
                codes[name] = int(row.group(1))
    return codes


class TestExitCodes:
    README_CODES = _readme_exit_codes()

    @pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
    def test_every_error_class_has_its_documented_code(self, error):
        assert error.__name__ in self.README_CODES, f"{error.__name__} missing from README"
        assert error.exit_code == self.README_CODES[error.__name__]

    def test_unexpected_exception_is_an_internal_error(self, workdir, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_place", broken)
        assert main(["place", str(workdir / "problem.json")]) == 1
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize(
        "error", [errors.DegenerateStatisticsError, errors.NoThresholdError, errors.SizeLimitError]
    )
    def test_handler_error_exits_with_its_code(self, workdir, capsys, monkeypatch, error):
        def failing(args):
            raise error("no good")

        monkeypatch.setattr(cli, "cmd_place", failing)
        assert main(["place", str(workdir / "problem.json")]) == error.exit_code
        assert capsys.readouterr().err == "error: no good\n"

    def test_nroot_n_beyond_the_float_range_exits_2(self, workdir, capsys):
        (workdir / "huge.json").write_text('{"kind": "nroot", "c": 6.0, "d": 1.2, "n": 1' + "0" * 400 + "}")
        assert main(["crossover", str(workdir / "cross_linear.json"), str(workdir / "huge.json")]) == 2
        assert capsys.readouterr().err == "error: n is an integer beyond the float range\n"
