import json
import math

import numpy as np
import pytest

from procwatt import (
    LinearProfile,
    NRootProfile,
    ReferenceMachineModel,
    derivative,
    evaluate,
    integrate_energy,
    machine_power,
    profile_from_dict,
    profile_to_dict,
)
from procwatt.errors import (
    DomainError,
    InputError,
    InsufficientDataError,
    OrderingError,
    SingularityError,
)


class TestEvaluate:
    def test_linear_through_baseline_averages(self):
        # line through the no-competition average (9.75 W) and the
        # equal-competitor point (12.5 W at p = 50): slope 2.75/50 = 0.055
        assert evaluate(LinearProfile(9.75, 0.055), 50.0) == pytest.approx(12.5, rel=1e-12)

    def test_nroot_exact_cube(self):
        assert evaluate(NRootProfile(7.0, 1.5, 3), 27.0) == pytest.approx(11.5, rel=1e-12)

    @pytest.mark.parametrize(
        "profile,intercept",
        [(LinearProfile(9.75, 0.055), 9.75), (NRootProfile(7.0, 1.5, 3), 7.0)],
    )
    def test_zero_returns_intercept(self, profile, intercept):
        assert evaluate(profile, 0.0) == intercept

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            evaluate(LinearProfile(9.0, 0.05), -1.0)

    def test_linear_differences_proportional_to_slope(self):
        prof = LinearProfile(9.3, 0.072)
        grid = [0.0, 0.5, 1.0, 7.25, 33.3, 50.0, 95.0]
        for p1 in grid:
            for p2 in grid:
                lhs = evaluate(prof, p2) - evaluate(prof, p1)
                assert lhs == pytest.approx(prof.b * (p2 - p1), rel=1e-12, abs=1e-12)

    def test_nroot_strictly_increasing_with_positive_d(self):
        prof = NRootProfile(6.0, 1.2, 4)
        grid = np.linspace(0.1, 95.0, 200)
        values = [evaluate(prof, p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("function", [evaluate, derivative])
@pytest.mark.parametrize("profile", [LinearProfile(1.0, 2.0), NRootProfile(6.0, 1.2, 2)])
def test_nan_competition_is_outside_the_domain(function, profile):
    with pytest.raises(DomainError):
        function(profile, math.nan)


class TestDerivative:
    def test_linear_is_constant(self):
        prof = LinearProfile(9.0, 0.05)
        assert derivative(prof, 0.0) == 0.05
        assert derivative(prof, 73.2) == 0.05

    def test_nroot_value(self):
        assert derivative(NRootProfile(6.0, 1.2, 2), 4.0) == pytest.approx(0.3, rel=1e-12)

    def test_nroot_singular_at_zero(self):
        with pytest.raises(SingularityError):
            derivative(NRootProfile(6.0, 1.2, 2), 0.0)

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            derivative(NRootProfile(6.0, 1.2, 2), -0.5)

    def test_nroot_derivative_strictly_decreasing(self):
        prof = NRootProfile(6.0, 1.2, 3)
        grid = np.linspace(0.5, 95.0, 150)
        values = [derivative(prof, p) for p in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "profile",
        [
            LinearProfile(9.75, 0.055),
            NRootProfile(6.0, 1.2, 2),
            NRootProfile(7.0, 1.5, 3),
            NRootProfile(8.2, 0.4, 8),
        ],
    )
    @pytest.mark.parametrize("p", [1.0, 10.0, 50.0, 90.0])
    def test_matches_central_finite_differences(self, profile, p):
        h = 1e-5 * p
        numeric = (evaluate(profile, p + h) - evaluate(profile, p - h)) / (2 * h)
        assert derivative(profile, p) == pytest.approx(numeric, rel=1e-6)


class TestIntegrateEnergy:
    def test_constant_power(self):
        samples = [(t, 10.0) for t in range(0, 361, 60)]
        assert integrate_energy(samples) == 3600.0

    def test_linear_ramp_is_exact(self):
        samples = [(t, 0.1 * t) for t in range(0, 101, 10)]
        assert integrate_energy(samples) == pytest.approx(500.0, rel=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientDataError):
            integrate_energy([(0.0, 10.0)])

    def test_non_monotone_rejected(self):
        with pytest.raises(OrderingError):
            integrate_energy([(0.0, 1.0), (2.0, 1.0), (1.0, 1.0)])

    def test_repeated_timestamp_adds_zero(self):
        assert integrate_energy([(0.0, 1.0), (0.0, 2.0)]) == 0.0
        assert integrate_energy([(0.0, 1.0), (1.0, 3.0), (1.0, 5.0), (2.0, 5.0)]) == 2.0 + 5.0

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            integrate_energy([(0.0, 1.0), (1.0, -0.1)])

    def test_additivity_on_split(self):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.5, 3.0, size=50))
        p = rng.uniform(0.0, 20.0, size=50)
        whole = np.column_stack([t, p])
        k = 23
        left, right = whole[: k + 1], whole[k:]
        assert integrate_energy(left) + integrate_energy(right) == pytest.approx(
            integrate_energy(whole), rel=1e-12
        )

    def test_accepts_ndarray(self):
        arr = np.array([[0.0, 5.0], [10.0, 5.0]])
        assert integrate_energy(arr) == 50.0


class TestMachinePower:
    model = ReferenceMachineModel(p_idle=50.0, p_max=150.0)

    def test_idle_endpoint(self):
        assert machine_power(self.model, 0.0) == 50.0

    def test_max_endpoint(self):
        assert machine_power(self.model, 1.0) == 150.0

    def test_midpoint(self):
        assert machine_power(self.model, 0.5) == 100.0

    @pytest.mark.parametrize("u", [-0.01, 1.01, 2.0])
    def test_out_of_range_rejected(self, u):
        with pytest.raises(DomainError):
            machine_power(self.model, u)

    def test_affine_in_utilization(self):
        grid = [0.0, 0.13, 0.5, 0.77, 1.0]
        for u1 in grid:
            for u2 in grid:
                mid = machine_power(self.model, (u1 + u2) / 2)
                avg = (machine_power(self.model, u1) + machine_power(self.model, u2)) / 2
                assert mid == pytest.approx(avg, rel=1e-12)

    def test_invalid_model_rejected(self):
        with pytest.raises(InputError):
            ReferenceMachineModel(p_idle=100.0, p_max=50.0)
        with pytest.raises(InputError):
            ReferenceMachineModel(p_idle=-1.0, p_max=50.0)


class TestConstruction:
    def test_nroot_requires_n_at_least_two(self):
        with pytest.raises(InputError):
            NRootProfile(7.0, 1.5, 1)

    def test_nroot_coerces_integral_float(self):
        assert NRootProfile(7.0, 1.5, 3.0).n == 3

    def test_nroot_rejects_fractional_n(self):
        with pytest.raises(InputError):
            NRootProfile(7.0, 1.5, 2.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(InputError):
            LinearProfile(bad, 0.05)
        with pytest.raises(InputError):
            NRootProfile(7.0, bad, 2)

    def test_nroot_rejects_n_beyond_the_float_range(self):
        with pytest.raises(InputError, match="beyond the float range"):
            NRootProfile(7.0, 1.5, 10**400)
        with pytest.raises(InputError, match="beyond the float range"):
            profile_from_dict({"kind": "nroot", "c": 7.0, "d": 1.5, "n": 10**400})
        assert NRootProfile(7.0, 1.5, 10**300).k == 1.0


class TestSerialization:
    @pytest.mark.parametrize(
        "profile",
        [
            LinearProfile(9.75, 0.055),
            LinearProfile(0.1, -1.0 / 3.0),
            NRootProfile(7.0, 1.5, 3),
            NRootProfile(1e-12, 123456.789, 8),
        ],
    )
    def test_round_trip_is_value_exact(self, profile):
        doc = json.loads(json.dumps(profile_to_dict(profile)))
        assert profile_from_dict(doc) == profile

    def test_linear_document_shape(self):
        assert profile_to_dict(LinearProfile(9.0, 0.05)) == {
            "kind": "linear",
            "a": 9.0,
            "b": 0.05,
        }

    def test_nroot_document_shape(self):
        assert profile_to_dict(NRootProfile(6.0, 1.2, 2)) == {
            "kind": "nroot",
            "c": 6.0,
            "d": 1.2,
            "n": 2,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            profile_from_dict({"kind": "quadratic", "a": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(InputError):
            profile_from_dict({"kind": "linear", "a": 1.0})

    def test_non_object_rejected(self):
        with pytest.raises(InputError):
            profile_from_dict([1, 2, 3])

    def test_integer_beyond_the_float_range_rejected(self):
        with pytest.raises(InputError, match="^a is an integer beyond the float range$"):
            profile_from_dict({"kind": "linear", "a": 10**400, "b": 0.05})
