import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procwatt import (
    LinearProfile,
    NRootProfile,
    best_machine,
    crossover_result_to_dict,
    derivative_threshold,
    difference,
    evaluate,
    find_crossovers,
)
from procwatt.analysis import REFINE_TOLERANCE
from procwatt.errors import InputError, NoThresholdError, ProfileKindError

LIN = LinearProfile(8.0, 0.05)
ROOT = NRootProfile(6.0, 1.2, 2)


def quadratic_roots_in_sqrt_p():
    # D(p) = 2 + 0.05 p - 1.2 sqrt(p); with s = sqrt(p):
    # 0.05 s^2 - 1.2 s + 2 = 0, roots s = (1.2 +- sqrt(1.44 - 0.4)) / 0.1
    disc = math.sqrt(1.2**2 - 4 * 0.05 * 2.0)
    s_small = (1.2 - disc) / (2 * 0.05)
    s_large = (1.2 + disc) / (2 * 0.05)
    return s_small**2, s_large**2


class TestDifference:
    def test_at_zero_is_intercept_gap(self):
        assert difference(LIN, ROOT, 0.0) == 2.0

    def test_at_four(self):
        assert difference(LIN, ROOT, 4.0) == pytest.approx(-0.2, rel=1e-12)

    def test_identical_constant_models(self):
        lin = LinearProfile(5.0, 0.0)
        root = NRootProfile(5.0, 0.0, 2)
        for p in (0.0, 1.0, 30.0, 99.0):
            assert difference(lin, root, p) == 0.0


class TestDerivativeThreshold:
    def test_worked_value(self):
        # (d / (n b)) ** (1/k) = (1.2 / 0.1) ** 2 = 144, exact to double precision
        assert derivative_threshold(LIN, ROOT) == pytest.approx(144.0, rel=1e-12)

    def test_equal_coefficients(self):
        value = derivative_threshold(LinearProfile(0.0, 1.0), NRootProfile(0.0, 1.0, 2))
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_zero_slope_has_no_threshold(self):
        with pytest.raises(NoThresholdError):
            derivative_threshold(LinearProfile(8.0, 0.0), ROOT)

    def test_negative_slope_has_no_threshold(self):
        with pytest.raises(NoThresholdError):
            derivative_threshold(LinearProfile(8.0, -0.1), ROOT)

    @pytest.mark.parametrize("b", [3e-266, 5e-324])  # the power overflows; the ratio does
    def test_threshold_beyond_the_float_range_does_not_exist(self, b):
        lin, root = LinearProfile(0.0, b), NRootProfile(0.0, 1.0, 2)
        with pytest.raises(NoThresholdError, match="beyond the float range"):
            derivative_threshold(lin, root)
        assert find_crossovers(lin, root, p_max=1.0).derivative_threshold is None

    def test_non_positive_d_gives_zero(self):
        assert derivative_threshold(LIN, NRootProfile(6.0, 0.0, 2)) == 0.0
        assert derivative_threshold(LIN, NRootProfile(6.0, -0.5, 2)) == 0.0

    def test_wrong_profile_kinds_rejected(self):
        with pytest.raises(ProfileKindError):
            derivative_threshold(ROOT, ROOT)
        with pytest.raises(ProfileKindError):
            derivative_threshold(LIN, LIN)

    @pytest.mark.parametrize(
        "lin,root",
        [
            (LIN, ROOT),
            (LinearProfile(9.0, 0.02), NRootProfile(7.0, 0.9, 3)),
            (LinearProfile(5.0, 0.4), NRootProfile(5.0, 0.4, 5)),
        ],
    )
    def test_difference_derivative_changes_sign_at_threshold(self, lin, root):
        star = derivative_threshold(lin, root)

        def d_dot(p):
            return lin.b - root.d / (root.n * p ** (1.0 - 1.0 / root.n))

        for factor in (1.05, 1.5, 4.0):
            assert d_dot(star * factor) > 0
        for factor in (0.95, 0.5, 0.1):
            assert d_dot(star * factor) < 0


class TestFindCrossovers:
    def test_worked_pair_single_in_domain_crossover(self):
        p_small, p_large = quadratic_roots_in_sqrt_p()
        result = find_crossovers(LIN, ROOT, p_max=100.0)
        assert len(result.crossovers) == 1
        assert result.crossovers[0] == pytest.approx(p_small, abs=2e-6)
        assert p_large > 100.0  # second analytic root lies outside the domain
        assert result.derivative_threshold == pytest.approx(144.0, rel=1e-12)

    def test_crossover_is_a_sign_change_with_small_residual(self):
        result = find_crossovers(LIN, ROOT, p_max=100.0)
        (pj,) = result.crossovers
        scale = max(1.0, abs(LIN.a) + abs(ROOT.c))
        assert abs(difference(LIN, ROOT, pj)) <= 1e-6 * scale
        assert difference(LIN, ROOT, pj - 1e-3) * difference(LIN, ROOT, pj + 1e-3) < 0

    def test_sign_intervals_for_worked_pair(self):
        result = find_crossovers(LIN, ROOT, p_max=100.0)
        signs = [iv.sign for iv in result.sign_intervals]
        assert signs == [1, -1]
        assert result.sign_intervals[0].lo == 0.0
        assert result.sign_intervals[-1].hi == 100.0

    def test_large_domain_contains_both_roots(self):
        p_small, p_large = quadratic_roots_in_sqrt_p()
        result = find_crossovers(LIN, ROOT, p_max=600.0)
        assert len(result.crossovers) == 2
        assert result.crossovers[0] == pytest.approx(p_small, abs=2e-6)
        assert result.crossovers[1] == pytest.approx(p_large, abs=2e-6)
        assert [iv.sign for iv in result.sign_intervals] == [1, -1, 1]

    def test_always_negative_difference_has_no_crossover(self):
        lin = LinearProfile(5.0, 0.01)
        root = NRootProfile(9.0, 1.0, 2)
        result = find_crossovers(lin, root, p_max=100.0)
        assert result.crossovers == ()
        assert [iv.sign for iv in result.sign_intervals] == [-1]
        # derivative turns positive only far outside the domain
        assert result.derivative_threshold == pytest.approx(2500.0, rel=1e-12)

    def test_boundary_touch_at_zero_is_excluded(self):
        lin = LinearProfile(5.0, 0.0)
        root = NRootProfile(5.0, 1.2, 2)
        result = find_crossovers(lin, root, p_max=100.0)
        assert result.crossovers == ()
        assert [iv.sign for iv in result.sign_intervals] == [-1]
        assert result.derivative_threshold is None

    def test_zero_p_max_returns_empty(self):
        result = find_crossovers(LIN, ROOT, p_max=0.0)
        assert result.crossovers == ()
        assert result.sign_intervals == ()

    def test_enlarging_domain_keeps_crossovers(self):
        found = {}
        for p_max in (50.0, 100.0, 200.0, 600.0):
            found[p_max] = find_crossovers(LIN, ROOT, p_max=p_max).crossovers
        for smaller, larger in [(50.0, 100.0), (100.0, 200.0), (200.0, 600.0)]:
            for pj in found[smaller]:
                assert any(abs(pj - other) <= 1e-5 for other in found[larger])

    def test_eventually_positive_interval_when_started_negative(self):
        # start below (D(p_i) < 0 at p_i = 4), detect the later sign change,
        # and end with an interval on which the n-root machine is preferable.
        # D(p) = 1 + 0.1 p - sqrt(p) has roots near p = 1.27 and p = 78.7.
        lin = LinearProfile(8.0, 0.1)
        root = NRootProfile(7.0, 1.0, 2)
        assert difference(lin, root, 4.0) < 0
        result = find_crossovers(lin, root, p_max=95.0)
        assert result.crossovers
        last = result.sign_intervals[-1]
        assert last.lo == pytest.approx(78.73, abs=0.01)
        assert last.sign == 1
        assert last.hi == 95.0

    def test_negative_p_max_rejected(self):
        with pytest.raises(InputError):
            find_crossovers(LIN, ROOT, p_max=-1.0)

    @pytest.mark.parametrize("p_max", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_p_max_rejected(self, p_max):
        with pytest.raises(InputError, match="p_max must be finite"):
            find_crossovers(LIN, ROOT, p_max=p_max)

    def test_wrong_kinds_rejected(self):
        with pytest.raises(ProfileKindError):
            find_crossovers(LIN, LIN, p_max=100.0)

    def test_serialization_shape(self):
        doc = crossover_result_to_dict(find_crossovers(LIN, ROOT, p_max=100.0))
        assert set(doc) == {"crossovers", "derivative_threshold", "sign_intervals"}
        assert doc["sign_intervals"][0] == {
            "interval": [0.0, doc["crossovers"][0]],
            "sign": 1,
        }


class TestBestMachine:
    PROFILES = {"m1": LinearProfile(9.0, 0.05), "m2": NRootProfile(8.0, 0.5, 2)}

    def test_low_competition_prefers_linear_machine(self):
        competition = {"m1": 25.0, "m2": 25.0}
        assert best_machine(self.PROFILES, competition) == "m1"
        assert evaluate(self.PROFILES["m1"], 25.0) == pytest.approx(10.25)
        assert evaluate(self.PROFILES["m2"], 25.0) == pytest.approx(10.5)

    def test_high_competition_flips_to_nroot_machine(self):
        competition = {"m1": 81.0, "m2": 81.0}
        assert best_machine(self.PROFILES, competition) == "m2"
        assert evaluate(self.PROFILES["m2"], 81.0) == pytest.approx(12.5)

    def test_single_machine(self):
        assert best_machine({"m9": LIN}, {"m9": 10.0}) == "m9"

    def test_key_mismatch_rejected(self):
        with pytest.raises(InputError):
            best_machine(self.PROFILES, {"m1": 10.0})
        with pytest.raises(InputError):
            best_machine(self.PROFILES, {"m1": 10.0, "mX": 10.0})

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            best_machine({}, {})

    def test_tie_breaks_to_smallest_id(self):
        profiles = {"b": LinearProfile(9.0, 0.0), "a": LinearProfile(9.0, 0.0)}
        assert best_machine(profiles, {"a": 10.0, "b": 90.0}) == "a"

    def test_argmin_invariant_under_common_shift(self):
        competition = {"m1": 40.0, "m2": 40.0}
        baseline = best_machine(self.PROFILES, competition)
        for delta in (-3.0, 0.5, 12.0):
            shifted = {
                "m1": LinearProfile(9.0 + delta, 0.05),
                "m2": NRootProfile(8.0 + delta, 0.5, 2),
            }
            assert best_machine(shifted, competition) == baseline


class TestScanRobustness:
    def test_crossover_count_matches_dense_sign_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            lin = LinearProfile(rng.uniform(4, 12), rng.uniform(0.0, 0.2))
            root = NRootProfile(rng.uniform(4, 12), rng.uniform(0.0, 2.0), int(rng.integers(2, 6)))
            result = find_crossovers(lin, root, p_max=100.0)
            # independent oracle: dense sign scan
            ps = np.linspace(1e-6, 100.0, 20001)
            ds = np.array([difference(lin, root, p) for p in ps])
            flips = int(np.sum(np.sign(ds[1:]) * np.sign(ds[:-1]) < 0))
            assert len(result.crossovers) == flips


linear_profiles = st.builds(LinearProfile, st.floats(0.0, 20.0), st.floats(-0.5, 0.5))
nroot_profiles = st.builds(NRootProfile, st.floats(0.0, 20.0), st.floats(-5.0, 5.0), st.integers(2, 8))


@settings(max_examples=200, deadline=None)
@given(linear_profiles, nroot_profiles, st.floats(1.0, 100.0), st.integers(1, 200))
def test_each_crossover_is_bracketed_by_a_sign_change_of_its_scan_cell(lin, root, p_max, cells):
    def sign(p):
        return np.sign(difference(lin, root, p))

    grid = np.linspace(0.0, p_max, cells + 1)[1:]
    signs = [sign(p) for p in grid]
    exact_zeros = {float(p) for p, s in zip(grid, signs) if s == 0}

    for x in find_crossovers(lin, root, p_max, cells=cells).crossovers:
        if x in exact_zeros:
            continue
        # the scan cell [lo, hi] whose end values of D(p) have opposite signs
        [(lo, hi)] = [
            (grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if grid[i] <= x <= grid[i + 1] and signs[i] * signs[i + 1] < 0
        ]
        # bisection stops at a bracket of width <= REFINE_TOLERANCE around x
        # (or at an exact zero), so D changes sign that close to x
        near_lo, near_hi = max(lo, x - REFINE_TOLERANCE), min(hi, x + REFINE_TOLERANCE)
        assert sign(x) == 0 or sign(near_lo) * sign(near_hi) < 0
