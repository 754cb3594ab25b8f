import math

import numpy as np
import pytest

from procwatt import (
    AggregatedPoint,
    FitReport,
    LinearProfile,
    NRootProfile,
    TraceSample,
    aggregate,
    evaluate,
    fit_linear,
    fit_nroot,
    fit_report_to_dict,
    points_from_samples,
    select_model,
    selection_to_dict,
    t_test_slope,
    two_sided_p_value,
)
from procwatt.errors import (
    DegenerateDesignError,
    DegenerateStatisticsError,
    InputError,
    InsufficientDataError,
    MismatchError,
)

LEVELS = [float(p) for p in range(0, 100, 5)]


def points_from_profile(profile, levels=LEVELS):
    return [AggregatedPoint(p, evaluate(profile, p), 1, 0.0) for p in levels]


# Hand dataset: x = 1..4, y = (2, 4, 5, 7).
# x_bar = 2.5, y_bar = 4.5, Sxx = 5, Sxy = 8, so slope 1.6, intercept 0.5,
# residuals (-0.1, 0.3, -0.3, 0.1), SSE = 0.2, s^2 = 0.1,
# SE(slope) = sqrt(0.1/5) = sqrt(0.02), t = 1.6/sqrt(0.02) = 8*sqrt(2).
HAND_POINTS = [AggregatedPoint(float(x), float(y), 1, 0.0) for x, y in [(1, 2), (2, 4), (3, 5), (4, 7)]]


class TestAggregate:
    def test_median_of_three_in_one_bin(self):
        samples = [TraceSample(t, 5.0, w) for t, w in [(0.0, 9.0), (1.0, 9.4), (2.0, 9.2)]]
        (point,) = aggregate(samples, bin_width=5.0)
        assert point.competition == 5.0
        assert point.power == 9.2
        assert point.count == 3

    def test_neighbours_share_bin(self):
        samples = [TraceSample(0.0, 2.0, 9.0), TraceSample(1.0, 3.0, 9.5)]
        (point,) = aggregate(samples, bin_width=5.0)
        assert point.competition == 2.5
        assert point.count == 2

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            aggregate([], bin_width=5.0)

    def test_non_positive_bin_width_rejected(self):
        with pytest.raises(InputError):
            aggregate([TraceSample(0.0, 5.0, 9.0)], bin_width=0.0)

    def test_bin_width_that_overflows_the_bin_keys_rejected(self):
        # 100 / 1e-310 is inf: every bin above 0 would share one "inf" key
        samples = [TraceSample(float(i), 5.0 * (i % 20), 9.0) for i in range(40)]
        assert len(aggregate(samples, bin_width=5.0)) == 20
        with pytest.raises(InputError, match=r"^bin_width must keep max\(competition\) / bin_width "
                                             r"finite, got 1e-310$"):
            aggregate(samples, bin_width=1e-310)
        assert len(aggregate(samples, bin_width=1e-306)) == 20
        assert len(aggregate([TraceSample(0.0, 0.0, 9.0)], bin_width=1e-310)) == 1

    def test_output_sorted_by_competition(self):
        samples = [
            TraceSample(0.0, 40.0, 11.0),
            TraceSample(1.0, 5.0, 9.0),
            TraceSample(2.0, 20.0, 10.0),
        ]
        comps = [pt.competition for pt in aggregate(samples)]
        assert comps == sorted(comps)

    def test_permutation_invariant_bit_for_bit(self):
        rng = np.random.default_rng(3)
        samples = [
            TraceSample(float(i), float(rng.uniform(0, 95)), float(rng.uniform(5, 15)))
            for i in range(200)
        ]
        reference = aggregate(samples)
        for seed in range(3):
            shuffled = list(samples)
            np.random.default_rng(seed).shuffle(shuffled)
            assert aggregate(shuffled) == reference

    def test_dispersion_is_population_std(self):
        samples = [TraceSample(float(i), 10.0, w) for i, w in enumerate([9.0, 10.0, 11.0])]
        (point,) = aggregate(samples)
        assert point.dispersion == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


class TestFitLinear:
    def test_recovers_noiseless_generator(self):
        truth = LinearProfile(9.75, 0.055)
        report = fit_linear(points_from_profile(truth))
        assert report.profile.a == pytest.approx(9.75, rel=1e-9)
        assert report.profile.b == pytest.approx(0.055, rel=1e-9)
        assert report.sse <= 1e-18
        assert report.r_squared == 1.0

    def test_hand_dataset_closed_form(self):
        report = fit_linear(HAND_POINTS)
        assert report.profile.b == pytest.approx(1.6, rel=1e-12)
        assert report.profile.a == pytest.approx(0.5, rel=1e-12)
        assert report.sse == pytest.approx(0.2, rel=1e-12)
        assert report.std_errors[1] == pytest.approx(math.sqrt(0.02), rel=1e-12)
        assert report.t_statistics[1] == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
        assert report.n_points == 4

    def test_constant_power_is_degenerate_fit(self):
        points = [AggregatedPoint(p, 9.5, 1, 0.0) for p in (0.0, 10.0, 20.0, 30.0)]
        report = fit_linear(points)
        assert report.profile.b == 0.0
        assert report.sse == 0.0
        assert report.t_statistics == (None, None)
        assert report.p_values == (None, None)
        with pytest.raises(DegenerateStatisticsError):
            t_test_slope(report)

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_linear(HAND_POINTS[:2])

    def test_no_spread_rejected(self):
        points = [AggregatedPoint(5.0, w, 1, 0.0) for w in (9.0, 9.5, 10.0)]
        with pytest.raises(DegenerateDesignError):
            fit_linear(points)


class TestFitNRoot:
    def test_recovers_noiseless_generator(self):
        truth = NRootProfile(7.0, 1.5, 3)
        report = fit_nroot(points_from_profile(truth), n_grid=range(2, 9))
        assert report.profile.n == 3
        assert report.profile.c == pytest.approx(7.0, rel=1e-9)
        assert report.profile.d == pytest.approx(1.5, rel=1e-9)
        assert report.sse <= 1e-18
        assert report.r_squared == 1.0

    def test_linear_data_fits_worse_than_linear_model(self):
        points = points_from_profile(LinearProfile(9.75, 0.055))
        assert fit_nroot(points).sse > fit_linear(points).sse

    def test_zero_competition_point_is_fine(self):
        points = points_from_profile(NRootProfile(6.0, 1.2, 2), levels=[0.0, 4.0, 9.0, 16.0])
        report = fit_nroot(points)
        assert report.profile.n == 2
        assert report.profile.c == pytest.approx(6.0, rel=1e-9)

    def test_reported_sse_is_grid_minimum(self):
        rng = np.random.default_rng(11)
        points = [
            AggregatedPoint(p, evaluate(NRootProfile(7.0, 1.5, 3), p) + rng.normal(0, 0.05), 1, 0.0)
            for p in LEVELS
        ]
        best = fit_nroot(points, n_grid=range(2, 9))
        for n in range(2, 9):
            assert fit_nroot(points, n_grid=[n]).sse >= best.sse

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            fit_nroot(HAND_POINTS, n_grid=[])

    def test_grid_below_two_rejected(self):
        with pytest.raises(InputError):
            fit_nroot(HAND_POINTS, n_grid=[1, 2])


class TestScaleEquivariance:
    @pytest.mark.parametrize("scale", [3.7, 0.25])
    def test_linear_fit_scales(self, scale):
        rng = np.random.default_rng(5)
        base = [
            AggregatedPoint(p, evaluate(LinearProfile(9.75, 0.055), p) + rng.normal(0, 0.1), 1, 0.0)
            for p in LEVELS
        ]
        scaled = [AggregatedPoint(pt.competition, pt.power * scale, 1, 0.0) for pt in base]
        r1, r2 = fit_linear(base), fit_linear(scaled)
        assert r2.profile.a == pytest.approx(r1.profile.a * scale, rel=1e-9)
        assert r2.profile.b == pytest.approx(r1.profile.b * scale, rel=1e-9)
        assert r2.std_errors[1] == pytest.approx(r1.std_errors[1] * scale, rel=1e-9)
        assert math.sqrt(r2.sse) == pytest.approx(math.sqrt(r1.sse) * scale, rel=1e-9)
        assert r2.t_statistics[1] == pytest.approx(r1.t_statistics[1], rel=1e-9)
        assert r2.r_squared == pytest.approx(r1.r_squared, rel=1e-9)

    def test_nroot_fit_scales_and_keeps_n(self):
        rng = np.random.default_rng(6)
        base = [
            AggregatedPoint(p, evaluate(NRootProfile(7.0, 1.5, 3), p) + rng.normal(0, 0.1), 1, 0.0)
            for p in LEVELS
        ]
        scaled = [AggregatedPoint(pt.competition, pt.power * 2.5, 1, 0.0) for pt in base]
        r1, r2 = fit_nroot(base), fit_nroot(scaled)
        assert r2.profile.n == r1.profile.n
        assert r2.profile.d == pytest.approx(r1.profile.d * 2.5, rel=1e-9)
        assert r2.t_statistics[1] == pytest.approx(r1.t_statistics[1], rel=1e-9)


class TestTTest:
    def test_hand_dataset(self):
        t, p = t_test_slope(fit_linear(HAND_POINTS))
        assert t == pytest.approx(11.3137, abs=1e-4)
        assert p == pytest.approx(two_sided_p_value(t, 2), abs=1e-12)

    def test_zero_t_gives_p_one(self):
        for df in (1, 2, 5, 30):
            assert two_sided_p_value(0.0, df) == 1.0

    def test_symmetric_in_t(self):
        assert two_sided_p_value(-2.5, 7) == two_sided_p_value(2.5, 7)

    def test_p_monotone_decreasing_in_abs_t(self):
        for df in (1, 2, 10):
            ts = np.linspace(0.0, 20.0, 80)
            ps = [two_sided_p_value(t, df) for t in ts]
            assert all(b < a for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("t,df", [(1.0, 5), (2.0, 10), (11.3137, 2), (0.5, 3), (4.2, 17)])
    def test_matches_density_quadrature(self, t, df):
        # independent check: Simpson integration of the t density on [0, t]
        def pdf(x):
            lg = (
                math.lgamma((df + 1) / 2.0)
                - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi)
            )
            return math.exp(lg) * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

        n = 20001
        xs = np.linspace(0.0, t, n)
        ys = np.array([pdf(x) for x in xs])
        h = xs[1] - xs[0]
        integral = (h / 3.0) * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        assert two_sided_p_value(t, df) == pytest.approx(1.0 - 2.0 * integral, abs=1e-9)

    def test_df_below_one_rejected(self):
        with pytest.raises(DegenerateStatisticsError):
            two_sided_p_value(1.0, 0)


class TestSelectModel:
    def _reports(self, truth, sigma=0.0, seed=0):
        rng = np.random.default_rng(seed)
        points = [
            AggregatedPoint(p, max(evaluate(truth, p) + rng.normal(0, sigma), 0.0), 1, 0.0)
            for p in LEVELS
        ]
        return fit_linear(points), fit_nroot(points)

    def test_clear_linear_win(self):
        linear, nroot = self._reports(LinearProfile(9.75, 0.055), sigma=0.05, seed=1)
        selection = select_model(linear, nroot, tie_tolerance=0.02)
        assert selection.chosen == "linear"
        assert selection.margin < -0.02

    def test_clear_nroot_win(self):
        linear, nroot = self._reports(NRootProfile(7.0, 1.5, 2), sigma=0.3, seed=2)
        selection = select_model(linear, nroot, tie_tolerance=0.02)
        assert selection.chosen == "nroot"
        assert selection.nroot_report.profile.n == 2

    def test_near_tie_reports_mixed(self):
        linear, nroot = self._reports(LinearProfile(9.75, 0.055))
        # both fits are reported; a wide tolerance turns any margin into a tie
        selection = select_model(linear, nroot, tie_tolerance=1.0)
        assert selection.chosen == "mixed"

    @staticmethod
    def _synthetic_report(profile, adj):
        return FitReport(
            profile=profile,
            std_errors=(0.1, 0.1),
            t_statistics=(1.0, 1.0),
            p_values=(0.5, 0.5),
            r_squared=adj,
            adj_r_squared=adj,
            sse=1.0,
            n_points=20,
        )

    def test_clear_margin_beats_tolerance(self):
        linear = self._synthetic_report(LinearProfile(9.0, 0.05), 0.99)
        nroot = self._synthetic_report(NRootProfile(7.0, 1.5, 2), 0.90)
        assert select_model(linear, nroot, tie_tolerance=0.02).chosen == "linear"

    def test_six_core_style_near_tie_is_mixed(self):
        linear = self._synthetic_report(LinearProfile(9.0, 0.05), 0.952)
        nroot = self._synthetic_report(NRootProfile(7.0, 1.5, 2), 0.958)
        selection = select_model(linear, nroot, tie_tolerance=0.02)
        assert selection.chosen == "mixed"
        assert selection.margin == pytest.approx(0.006, rel=1e-9)

    def test_margin_is_adj_r2_difference(self):
        linear, nroot = self._reports(NRootProfile(7.0, 1.5, 3), sigma=0.2, seed=3)
        selection = select_model(linear, nroot)
        assert selection.margin == pytest.approx(
            nroot.adj_r_squared - linear.adj_r_squared, rel=1e-12
        )

    def test_mismatched_point_sets_rejected(self):
        linear, _ = self._reports(LinearProfile(9.75, 0.055))
        other_points = points_from_samples(
            [TraceSample(0.0, 0.0, 9.75), TraceSample(1.0, 5.0, 10.0), TraceSample(2.0, 10.0, 10.3)]
        )
        with pytest.raises(MismatchError):
            select_model(linear, fit_nroot(other_points))

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf, -math.inf, "0.1", None])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        linear, nroot = self._reports(LinearProfile(9.75, 0.055))
        with pytest.raises(InputError, match="tie_tolerance must be finite and >= 0"):
            select_model(linear, nroot, tie_tolerance=tolerance)

    def test_swapped_reports_rejected(self):
        linear, nroot = self._reports(LinearProfile(9.75, 0.055))
        with pytest.raises(InputError):
            select_model(nroot, linear)


class TestPipelineProperties:
    def test_aggregate_then_fit_order_invariant(self):
        rng = np.random.default_rng(9)
        samples = [
            TraceSample(float(i), float(rng.choice(LEVELS)), float(rng.uniform(8, 16)))
            for i in range(400)
        ]
        ref = fit_linear(aggregate(samples))
        shuffled = list(samples)
        np.random.default_rng(1).shuffle(shuffled)
        again = fit_linear(aggregate(shuffled))
        assert again == ref

    def test_raw_points_keep_every_sample(self):
        samples = [TraceSample(float(i), 5.0 * (i % 4), 9.0 + i * 0.01) for i in range(12)]
        assert len(points_from_samples(samples)) == 12


class TestSerialization:
    def test_report_document_fields(self):
        doc = fit_report_to_dict(fit_linear(HAND_POINTS))
        assert set(doc) == {
            "profile",
            "std_errors",
            "t_statistics",
            "p_values",
            "r_squared",
            "adj_r_squared",
            "sse",
            "n_points",
        }
        assert doc["profile"]["kind"] == "linear"

    def test_selection_document_fields(self):
        points = points_from_profile(LinearProfile(9.75, 0.055))
        doc = selection_to_dict(select_model(fit_linear(points), fit_nroot(points)))
        assert set(doc) == {"chosen", "linear_report", "nroot_report", "margin"}

    def test_degenerate_t_serializes_as_null(self):
        import json

        points = [AggregatedPoint(p, 9.5, 1, 0.0) for p in (0.0, 10.0, 20.0)]
        doc = fit_report_to_dict(fit_linear(points))
        assert json.loads(json.dumps(doc))["t_statistics"] == [None, None]
