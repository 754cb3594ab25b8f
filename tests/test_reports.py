"""A report's JSON object is its result dataclass's fields, in order.

The hand-written serializers below are the references the derived ones
replaced: each spells out its dataclass's fields.  The derived documents
must give the same ``json.dumps`` bytes, key order included.
"""

import json
import pkgutil

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import procwatt
from procwatt import (
    AggregatedPoints,
    LinearProfile,
    Machine,
    NRootProfile,
    PlacementProblem,
    Vnf,
    fit_linear,
    fit_nroot,
    fit_report_to_dict,
    place_exhaustive,
    place_greedy,
    problem_to_dict,
    profile_to_dict,
    result_to_dict,
    select_model,
    selection_to_dict,
)

CASES = settings(max_examples=100, deadline=None)


def reference_fit_report(report):
    return {
        "profile": profile_to_dict(report.profile),
        "std_errors": list(report.std_errors),
        "t_statistics": list(report.t_statistics),
        "p_values": list(report.p_values),
        "r_squared": report.r_squared,
        "adj_r_squared": report.adj_r_squared,
        "sse": report.sse,
        "n_points": report.n_points,
    }


def reference_selection(selection):
    return {
        "chosen": selection.chosen,
        "linear_report": reference_fit_report(selection.linear_report),
        "nroot_report": reference_fit_report(selection.nroot_report),
        "margin": selection.margin,
    }


def reference_problem(problem):
    return {
        "machines": [
            {
                "id": m.id,
                "profile": profile_to_dict(m.profile),
                "base_competition": m.base_competition,
                "core_count": m.core_count,
            }
            for m in problem.machines
        ],
        "vnfs": [
            {"id": v.id, "cpu_share": v.cpu_share, "slice_id": v.slice_id}
            for v in problem.vnfs
        ],
        "slices": list(problem.slices),
    }


def reference_result(result):
    return {
        "assignment": dict(result.assignment),
        "per_vnf_power": dict(result.per_vnf_power),
        "per_slice_power": dict(result.per_slice_power),
        "total_power": result.total_power,
        "feasible": result.feasible,
    }


def assert_same_bytes(derived, reference):
    assert json.dumps(derived, indent=2) == json.dumps(reference, indent=2)


def fit_points(seed, size, family, sigma):
    """size points on a linear or n-root truth, plus Gaussian noise of sigma watts."""
    rng = np.random.default_rng(seed)
    competition = np.sort(rng.uniform(0.0, 100.0, size))
    if family == "linear":
        truth = LinearProfile(float(rng.uniform(5, 12)), float(rng.uniform(-0.05, 0.2)))
        power = truth.a + truth.b * competition
    else:
        truth = NRootProfile(float(rng.uniform(5, 12)), float(rng.uniform(0.0, 2.0)),
                             int(rng.integers(2, 9)))
        power = truth.c + truth.d * competition ** (1.0 / truth.n)
    power = np.abs(power + rng.normal(0.0, sigma, size))
    return AggregatedPoints(competition, power, np.ones(size, dtype=np.int64), np.zeros(size))


@CASES
@given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.sampled_from(["linear", "nroot"]),
       st.sampled_from([0.0, 0.01, 0.5, 3.0]))
def test_fit_reports_and_selections_match_the_references(seed, size, family, sigma):
    points = fit_points(seed, size, family, sigma)
    linear, nroot = fit_linear(points), fit_nroot(points)
    for report in (linear, nroot):
        assert_same_bytes(fit_report_to_dict(report), reference_fit_report(report))
    selection = select_model(linear, nroot)
    assert_same_bytes(selection_to_dict(selection), reference_selection(selection))


def test_exact_fit_serializes_null_t_and_p():
    points = AggregatedPoints([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1] * 4, [0.0] * 4)
    report = fit_linear(points)
    assert report.t_statistics == (None, None) and report.p_values == (None, None)
    assert_same_bytes(fit_report_to_dict(report), reference_fit_report(report))
    selection = select_model(report, fit_nroot(points))
    assert_same_bytes(selection_to_dict(selection), reference_selection(selection))


def placement_problem(seed, n_machines, n_vnfs, crowded):
    """A random instance; crowded machines are fully loaded, so no VNF fits."""
    rng = np.random.default_rng(seed)
    machines = []
    for i in range(n_machines):
        if rng.random() < 0.5:
            profile = LinearProfile(float(rng.uniform(5, 12)), float(rng.uniform(-0.1, 0.2)))
        else:
            profile = NRootProfile(float(rng.uniform(5, 12)), float(rng.uniform(-1.0, 2.0)),
                                   int(rng.integers(2, 6)))
        base = 100.0 if crowded else float(rng.uniform(0.0, 20.0))
        machines.append(Machine(f"m{i}", profile, base_competition=base,
                                core_count=int(rng.integers(1, 65))))
    slices = tuple(f"s{i}" for i in range(int(rng.integers(1, 4))))
    vnfs = tuple(
        Vnf(f"f{j}", float(rng.uniform(1.0, 30.0)), slices[int(rng.integers(0, len(slices)))])
        for j in range(n_vnfs)
    )
    return PlacementProblem(machines=tuple(machines), vnfs=vnfs, slices=slices)


@CASES
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 5), st.booleans())
@example(seed=0, n_machines=2, n_vnfs=0, crowded=False)  # an empty placement
@example(seed=0, n_machines=2, n_vnfs=3, crowded=True)  # an infeasible one
def test_problems_and_results_match_the_references(seed, n_machines, n_vnfs, crowded):
    problem = placement_problem(seed, n_machines, n_vnfs, crowded)
    assert_same_bytes(problem_to_dict(problem), reference_problem(problem))
    for result in (place_greedy(problem), place_exhaustive(problem)):
        if crowded and n_vnfs:
            assert not result.feasible
        assert_same_bytes(result_to_dict(result), reference_result(result))


def test_exports_are_the_public_names_imported():
    submodules = {module.name for module in pkgutil.iter_modules(procwatt.__path__)}
    assert not submodules & set(procwatt.__all__)
    assert len(set(procwatt.__all__)) == len(procwatt.__all__)
    for name in procwatt.__all__:
        getattr(procwatt, name)
    namespace = {}
    exec("from procwatt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(procwatt.__all__)
