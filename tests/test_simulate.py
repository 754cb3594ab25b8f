import numpy as np
import pytest

from procwatt import (
    LinearProfile,
    NRootProfile,
    ProtocolConfig,
    aggregate,
    competition_levels,
    evaluate,
    fit_linear,
    fit_nroot,
    generate_trace,
    samples_per_level,
    select_model,
    trace_to_string,
)
from procwatt.errors import ConfigError


class TestConfig:
    def test_defaults_follow_the_protocol(self):
        config = ProtocolConfig(baseline_load_q=5.0)
        assert config.step_pct == 5.0
        assert config.dwell_seconds == 360.0
        assert config.cycles == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"baseline_load_q": 0.0},
            {"baseline_load_q": 100.0},
            {"baseline_load_q": 5.0, "step_pct": 0.0},
            {"baseline_load_q": 5.0, "noise_sigma": -0.1},
            {"baseline_load_q": 5.0, "cycles": 0},
            {"baseline_load_q": 5.0, "sample_interval_seconds": 0.0},
            {"baseline_load_q": 5.0, "dwell_seconds": 1.0, "sample_interval_seconds": 5.0},
            {"baseline_load_q": 5.0, "start_pct": 96.0},
            {"baseline_load_q": 5.0, "noise_sigma": float("nan")},
            {"baseline_load_q": 5.0, "step_pct": float("nan")},
            {"baseline_load_q": 5.0, "start_pct": float("nan")},
            {"baseline_load_q": 5.0, "dwell_seconds": float("inf")},
            {"baseline_load_q": 5.0, "sample_interval_seconds": float("nan")},
            {"baseline_load_q": 5.0, "noise_sigma": "0.3"},
            {"baseline_load_q": True},
            {"baseline_load_q": 5.0, "cycles": 1.5},
            {"baseline_load_q": 5.0, "cycles": True},
            {"baseline_load_q": 5.0, "cycles": "8"},
            {"baseline_load_q": 5.0, "seed": 1.5},
            {"baseline_load_q": 5.0, "seed": 1.5, "noise_sigma": 0.3},
            {"baseline_load_q": 5.0, "seed": False},
            # sizes that would fail while allocating; validation rejects them first
            {"baseline_load_q": 5.0, "dwell_seconds": 10**400},
            {"baseline_load_q": 5.0, "noise_sigma": -(10**400)},
            {"baseline_load_q": 5.0, "cycles": 10**30},
            {"baseline_load_q": 5.0, "cycles": 10**400},
            {"baseline_load_q": 5.0, "step_pct": 5e-324},
            {"baseline_load_q": 5.0, "dwell_seconds": 1e300},
            {"baseline_load_q": 5.0, "dwell_seconds": 10**300, "sample_interval_seconds": 3},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)

    def test_integral_float_cycles_is_accepted(self):
        cycles = ProtocolConfig(baseline_load_q=5.0, cycles=8.0).cycles
        assert cycles == 8 and isinstance(cycles, int)


class TestLevels:
    def test_q5_runs_zero_to_ninety_five(self):
        levels = competition_levels(ProtocolConfig(baseline_load_q=5.0))
        assert levels[0] == 0.0
        assert levels[-1] == 95.0
        assert len(levels) == 20

    def test_q50_runs_zero_to_fifty(self):
        levels = competition_levels(ProtocolConfig(baseline_load_q=50.0))
        assert levels[-1] == 50.0
        assert len(levels) == 11

    def test_arithmetic_with_step_and_capped(self):
        config = ProtocolConfig(baseline_load_q=7.0, step_pct=4.0, start_pct=1.0)
        levels = competition_levels(config)
        steps = np.diff(levels)
        assert np.allclose(steps, 4.0)
        assert levels[-1] <= 100.0 - 7.0
        assert levels[-1] + 4.0 > 100.0 - 7.0


class TestGenerate:
    def test_sample_count_is_exact(self):
        config = ProtocolConfig(baseline_load_q=50.0, cycles=1)
        trace = generate_trace(config, LinearProfile(9.75, 0.055))
        assert len(trace.samples) == 11 * 72 == 792

    def test_sample_count_formula(self):
        config = ProtocolConfig(
            baseline_load_q=5.0, cycles=3, dwell_seconds=47.0, sample_interval_seconds=5.0
        )
        trace = generate_trace(config, LinearProfile(9.75, 0.055))
        per_level = samples_per_level(config)
        assert per_level == 9
        assert len(trace.samples) == 3 * 20 * per_level

    def test_noiseless_samples_equal_evaluation_exactly(self):
        truth = NRootProfile(7.0, 1.5, 3)
        config = ProtocolConfig(baseline_load_q=50.0, cycles=1, dwell_seconds=10.0)
        for s in generate_trace(config, truth).samples:
            assert s.power == evaluate(truth, s.competition)

    def test_timestamps_continuous_and_strictly_increasing(self):
        config = ProtocolConfig(
            baseline_load_q=50.0, cycles=2, dwell_seconds=15.0, sample_interval_seconds=5.0
        )
        trace = generate_trace(config, LinearProfile(9.75, 0.055))
        times = [s.t for s in trace.samples]
        assert times == [5.0 * i for i in range(len(times))]

    def test_same_seed_same_bytes(self):
        config = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.3, seed=7, cycles=2)
        truth = LinearProfile(9.75, 0.055)
        assert trace_to_string(generate_trace(config, truth)) == trace_to_string(
            generate_trace(config, truth)
        )

    def test_different_seeds_differ(self):
        truth = LinearProfile(9.75, 0.055)
        a = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.3, seed=1, cycles=1)
        b = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.3, seed=2, cycles=1)
        assert trace_to_string(generate_trace(a, truth)) != trace_to_string(
            generate_trace(b, truth)
        )

    def test_first_cycle_independent_of_cycle_count(self):
        # per-cycle noise streams: a longer run begins with the same cycle
        truth = LinearProfile(9.75, 0.055)
        one = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.3, seed=3, cycles=1)
        two = ProtocolConfig(baseline_load_q=50.0, noise_sigma=0.3, seed=3, cycles=2)
        short = generate_trace(one, truth).samples
        long = generate_trace(two, truth).samples
        assert long[: len(short)] == short

    def test_noise_clamped_at_zero(self):
        truth = LinearProfile(0.01, 0.0)
        config = ProtocolConfig(baseline_load_q=50.0, noise_sigma=5.0, seed=1, cycles=1,
                                dwell_seconds=20.0)
        powers = [s.power for s in generate_trace(config, truth).samples]
        assert min(powers) == 0.0

    def test_levels_never_exceed_domain(self):
        config = ProtocolConfig(baseline_load_q=13.0, step_pct=7.0)
        trace = generate_trace(config, LinearProfile(9.75, 0.055))
        assert max(s.competition for s in trace.samples) <= 100.0 - 13.0


class TestRoundTrip:
    def test_noiseless_linear_recovery(self):
        truth = LinearProfile(9.75, 0.055)
        config = ProtocolConfig(baseline_load_q=5.0, cycles=1, dwell_seconds=10.0)
        points = aggregate(generate_trace(config, truth).samples)
        selection = select_model(fit_linear(points), fit_nroot(points))
        assert selection.chosen == "linear"
        assert selection.linear_report.profile.a == pytest.approx(9.75, rel=1e-9)
        assert selection.linear_report.profile.b == pytest.approx(0.055, rel=1e-9)

    def test_noiseless_nroot_recovery(self):
        truth = NRootProfile(7.0, 1.5, 3)
        config = ProtocolConfig(baseline_load_q=5.0, cycles=1, dwell_seconds=10.0)
        points = aggregate(generate_trace(config, truth).samples)
        selection = select_model(fit_linear(points), fit_nroot(points))
        assert selection.chosen == "nroot"
        report = selection.nroot_report
        assert report.profile.n == 3
        assert report.profile.c == pytest.approx(7.0, rel=1e-9)
        assert report.profile.d == pytest.approx(1.5, rel=1e-9)
        assert report.sse <= 1e-18

    def test_more_cycles_shrink_recovery_error(self):
        truth = LinearProfile(9.75, 0.055)
        mean_error = {}
        for cycles in (1, 4, 16):
            errors = []
            for seed in range(20):
                config = ProtocolConfig(
                    baseline_load_q=50.0,
                    noise_sigma=0.3,
                    seed=seed,
                    dwell_seconds=60.0,
                    cycles=cycles,
                )
                trace = generate_trace(config, truth)
                report = fit_linear(aggregate(trace.samples))
                errors.append(abs(report.profile.b - truth.b))
            mean_error[cycles] = float(np.mean(errors))
        assert mean_error[16] < mean_error[4] < mean_error[1]
