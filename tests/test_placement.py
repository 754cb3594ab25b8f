import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procwatt import (
    LinearProfile,
    Machine,
    NRootProfile,
    PlacementProblem,
    Vnf,
    evaluate_assignment,
    faced_competition,
    find_crossovers,
    place_exhaustive,
    place_greedy,
    placement,
    problem_from_dict,
    problem_to_dict,
    slice_power,
    vnf_power,
)
from procwatt.errors import InputError, SizeLimitError


def two_by_two():
    return PlacementProblem(
        machines=(
            Machine("m1", LinearProfile(9.0, 0.05)),
            Machine("m2", NRootProfile(8.0, 0.5, 2)),
        ),
        vnfs=(Vnf("f1", 20.0, "s1"), Vnf("f2", 20.0, "s1")),
        slices=("s1",),
    )


def random_problem(rng, max_machines=3, max_vnfs=6):
    n_machines = int(rng.integers(1, max_machines + 1))
    n_vnfs = int(rng.integers(1, max_vnfs + 1))
    machines = []
    for i in range(n_machines):
        if rng.random() < 0.5:
            profile = LinearProfile(float(rng.uniform(5, 12)), float(rng.uniform(0.0, 0.2)))
        else:
            profile = NRootProfile(
                float(rng.uniform(5, 12)),
                float(rng.uniform(0.0, 2.0)),
                int(rng.integers(2, 6)),
            )
        machines.append(
            Machine(f"m{i}", profile, base_competition=float(rng.uniform(0.0, 4.0)))
        )
    slices = [f"s{i}" for i in range(int(rng.integers(1, 4)))]
    vnfs = [
        Vnf(f"f{j}", float(rng.uniform(2.0, 15.0)), slices[int(rng.integers(0, len(slices)))])
        for j in range(n_vnfs)
    ]
    return PlacementProblem(machines=tuple(machines), vnfs=tuple(vnfs), slices=tuple(slices))


def reference_place_exhaustive(problem):
    """The original solver's contract, enumerated with separately written
    arithmetic: every machines**vnfs assignment in lexicographic order, the
    first strictly cheapest feasible one kept, else the first strictly
    cheapest of all (none then fits)."""
    machine_by_id = {m.id: m for m in problem.machines}
    vnf_ids = sorted(v.id for v in problem.vnfs)
    vnf_by_id = {v.id: v for v in problem.vnfs}
    best, best_infeasible = None, None
    for combo in itertools.product(sorted(machine_by_id), repeat=len(vnf_ids)):
        assignment = dict(zip(vnf_ids, combo))
        load = {m: machine_by_id[m].base_competition for m in machine_by_id}
        for vid in vnf_ids:
            load[assignment[vid]] += vnf_by_id[vid].cpu_share
        watts = {}
        for vid in vnf_ids:
            machine = machine_by_id[assignment[vid]]
            faced = machine.base_competition + sum(
                vnf_by_id[o].cpu_share
                for o in vnf_ids
                if o != vid and assignment[o] == assignment[vid]
            )
            profile = machine.profile
            if isinstance(profile, LinearProfile):
                watts[vid] = profile.a + profile.b * faced
            else:
                watts[vid] = profile.c + profile.d * faced ** (1.0 / profile.n)
        per_slice = {s: 0.0 for s in problem.slices}
        for vid in vnf_ids:
            per_slice[vnf_by_id[vid].slice_id] += watts[vid]
        total = 0.0
        for s in problem.slices:
            total += per_slice[s]
        candidate = (total, assignment, watts, per_slice)
        if all(x <= 100.0 for x in load.values()):
            if best is None or total < best[0]:
                best = candidate
        elif best is None and (best_infeasible is None or total < best_infeasible[0]):
            best_infeasible = candidate
    total, assignment, watts, per_slice = best or best_infeasible
    return placement.PlacementResult(assignment, watts, per_slice, total, best is not None)


def brute_force(problem):
    """The reference's assignment and total."""
    result = reference_place_exhaustive(problem)
    return result.assignment, result.total_power


def double_sum_total(problem, result):
    """Eq-style identity: sum over slices and vnfs of membership * power."""
    slice_ids = list(problem.slices)
    vnf_list = sorted(problem.vnfs, key=lambda v: v.id)
    membership = np.array(
        [[1.0 if v.slice_id == s else 0.0 for v in vnf_list] for s in slice_ids]
    )
    powers = np.array([result.per_vnf_power[v.id] for v in vnf_list])
    return float(np.sum(membership @ powers))


class TestVnfPower:
    def test_sole_vnf_faces_base_competition_only(self):
        problem = two_by_two()
        assignment = {"f1": "m1", "f2": "m2"}
        assert vnf_power(problem, assignment, "f1") == 9.0
        assert vnf_power(problem, assignment, "f2") == 8.0

    def test_colocated_vnfs_face_each_other(self):
        problem = two_by_two()
        assignment = {"f1": "m2", "f2": "m2"}
        expected = 8.0 + 0.5 * math.sqrt(20.0)
        assert vnf_power(problem, assignment, "f1") == pytest.approx(expected, rel=1e-12)
        assert faced_competition(problem, assignment, "f1") == 20.0

    def test_unassigned_vnf_rejected(self):
        with pytest.raises(InputError):
            vnf_power(two_by_two(), {"f1": "m1"}, "f2")

    def test_base_competition_adds_up(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.1), base_competition=30.0),),
            vnfs=(Vnf("f1", 10.0, "s1"), Vnf("f2", 20.0, "s1")),
            slices=("s1",),
        )
        assignment = {"f1": "m1", "f2": "m1"}
        assert faced_competition(problem, assignment, "f1") == 50.0
        assert faced_competition(problem, assignment, "f2") == 40.0


class TestCapacity:
    def test_overcommitted_machine_flagged_infeasible(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=(Vnf("f1", 60.0, "s1"), Vnf("f2", 60.0, "s1")),
            slices=("s1",),
        )
        result = place_greedy(problem)
        assert result.feasible is False

    def test_exhaustive_skips_infeasible_candidates(self):
        # both on one machine would exceed 100%, the split is forced
        problem = PlacementProblem(
            machines=(
                Machine("cheap", LinearProfile(1.0, 0.0)),
                Machine("dear", LinearProfile(50.0, 0.0)),
            ),
            vnfs=(Vnf("f1", 60.0, "s1"), Vnf("f2", 60.0, "s1")),
            slices=("s1",),
        )
        result = place_exhaustive(problem)
        assert result.feasible is True
        assert sorted(result.assignment.values()) == ["cheap", "dear"]

    def test_all_infeasible_returns_flagged_minimum(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=(Vnf("f1", 70.0, "s1"), Vnf("f2", 70.0, "s1")),
            slices=("s1",),
        )
        result = place_exhaustive(problem)
        assert result.feasible is False
        assert set(result.assignment.values()) == {"m1"}

    def test_exactly_full_machine_is_feasible(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=(Vnf("f1", 50.0, "s1"), Vnf("f2", 50.0, "s1")),
            slices=("s1",),
        )
        assert place_greedy(problem).feasible is True


class TestSlicePower:
    def _result(self):
        # constant profiles pin per-vnf powers to 3, 4 and 5 watts
        problem = PlacementProblem(
            machines=(
                Machine("ma", LinearProfile(3.0, 0.0)),
                Machine("mb", LinearProfile(4.0, 0.0)),
                Machine("mc", LinearProfile(5.0, 0.0)),
            ),
            vnfs=(Vnf("f1", 10.0, "s1"), Vnf("f2", 10.0, "s2"), Vnf("f3", 10.0, "s1")),
            slices=("s1", "s2", "s_empty"),
        )
        return problem, evaluate_assignment(
            problem, {"f1": "ma", "f2": "mb", "f3": "mc"}
        )

    def test_membership_sum(self):
        _, result = self._result()
        assert slice_power(result, "s1") == 8.0
        assert slice_power(result, "s2") == 4.0

    def test_empty_slice_is_zero(self):
        _, result = self._result()
        assert slice_power(result, "s_empty") == 0.0

    def test_unknown_slice_rejected(self):
        _, result = self._result()
        with pytest.raises(InputError):
            slice_power(result, "nope")

    def test_single_slice_collapses_to_total(self):
        problem = two_by_two()
        result = place_greedy(problem)
        assert slice_power(result, "s1") == result.total_power


class TestGreedy:
    def test_worked_instance(self):
        result = place_greedy(two_by_two())
        # f1 lands on the n-root machine (8 W at p=0 beats 9 W), f2 then
        # prefers the untouched linear machine (9 W beats 10.236 W)
        assert result.assignment == {"f1": "m2", "f2": "m1"}
        assert result.total_power == 17.0
        assert result.feasible is True

    def test_single_machine_takes_all(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=(Vnf("f1", 10.0, "s1"), Vnf("f2", 10.0, "s1"), Vnf("f3", 10.0, "s1")),
            slices=("s1",),
        )
        result = place_greedy(problem)
        assert set(result.assignment.values()) == {"m1"}

    def test_no_vnfs(self):
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=(),
            slices=("s1",),
        )
        result = place_greedy(problem)
        assert result.assignment == {}
        assert result.total_power == 0.0
        assert result.feasible is True


class TestExhaustive:
    def test_worked_instance_optimum(self):
        result = place_exhaustive(two_by_two())
        assert result.total_power == 17.0
        # hand enumeration: both-on-m1 is 20 W, both-on-m2 is 20.47 W,
        # either split is 17 W; lexicographic tie-break picks f1 -> m1
        assert result.assignment == {"f1": "m1", "f2": "m2"}

    def test_size_limits_enforced(self):
        vnfs = tuple(Vnf(f"f{i}", 5.0, "s1") for i in range(10))
        problem = PlacementProblem(
            machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
            vnfs=vnfs,
            slices=("s1",),
        )
        with pytest.raises(SizeLimitError):
            place_exhaustive(problem)
        # raising the limit lets the same instance through
        assert place_exhaustive(problem, max_vnfs=10).feasible is True

    def test_machine_limit_enforced(self):
        machines = tuple(Machine(f"m{i}", LinearProfile(9.0, 0.05)) for i in range(5))
        problem = PlacementProblem(
            machines=machines, vnfs=(Vnf("f1", 5.0, "s1"),), slices=("s1",)
        )
        with pytest.raises(SizeLimitError):
            place_exhaustive(problem)

    def test_matches_brute_force_bit_for_bit(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            problem = random_problem(rng)
            result = place_exhaustive(problem)
            oracle_assignment, oracle_total = brute_force(problem)
            assert result.assignment == oracle_assignment
            assert result.total_power == oracle_total

    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(777)
        for _ in range(40):
            problem = random_problem(rng)
            assert place_exhaustive(problem).total_power <= place_greedy(problem).total_power

    def test_double_sum_identity(self):
        rng = np.random.default_rng(555)
        for _ in range(30):
            problem = random_problem(rng)
            result = place_exhaustive(problem)
            assert result.total_power == pytest.approx(double_sum_total(problem, result), rel=1e-9)
            assert result.total_power == pytest.approx(sum(result.per_vnf_power.values()), rel=1e-9)
            assert result.total_power == pytest.approx(sum(result.per_slice_power.values()), rel=1e-9)

    def test_relabeling_preserves_optimum(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            problem = random_problem(rng)
            total = place_exhaustive(problem).total_power
            renamed = PlacementProblem(
                machines=tuple(
                    Machine(f"zz-{m.id}", m.profile, m.base_competition, m.core_count)
                    for m in problem.machines
                ),
                vnfs=tuple(
                    Vnf(f"qq-{v.id}", v.cpu_share, v.slice_id) for v in problem.vnfs
                ),
                slices=problem.slices,
            )
            assert place_exhaustive(renamed).total_power == pytest.approx(total, rel=1e-12)

    def test_adding_a_machine_never_hurts(self):
        rng = np.random.default_rng(4242)
        for _ in range(10):
            problem = random_problem(rng, max_machines=2)
            before = place_exhaustive(problem).total_power
            extra = Machine("zz-extra", LinearProfile(float(rng.uniform(5, 12)), 0.1))
            grown = PlacementProblem(
                machines=problem.machines + (extra,), vnfs=problem.vnfs, slices=problem.slices
            )
            assert place_exhaustive(grown).total_power <= before + 1e-12

    def test_identical_linear_machines_depend_only_on_share_sums(self):
        # equal shares: any assignment with the same multiset of per-machine
        # share sums dissipates the same total
        profile = LinearProfile(7.0, 0.03)
        problem = PlacementProblem(
            machines=(Machine("m1", profile), Machine("m2", profile)),
            vnfs=tuple(Vnf(f"f{i}", 15.0, "s1") for i in range(4)),
            slices=("s1",),
        )
        totals = {}
        for combo in itertools.product(["m1", "m2"], repeat=4):
            result = evaluate_assignment(problem, dict(zip([f"f{i}" for i in range(4)], combo)))
            key = tuple(sorted(combo.count(m) for m in ("m1", "m2")))
            totals.setdefault(key, set()).add(round(result.total_power, 9))
        for sums, values in totals.items():
            assert len(values) == 1, f"same split {sums} gave different totals {values}"


class TestProblemValidation:
    def test_duplicate_vnf_ids_rejected(self):
        with pytest.raises(InputError):
            PlacementProblem(
                machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
                vnfs=(Vnf("f1", 5.0, "s1"), Vnf("f1", 5.0, "s1")),
                slices=("s1",),
            )

    def test_unknown_slice_rejected(self):
        with pytest.raises(InputError):
            PlacementProblem(
                machines=(Machine("m1", LinearProfile(9.0, 0.05)),),
                vnfs=(Vnf("f1", 5.0, "sX"),),
                slices=("s1",),
            )

    def test_bad_share_rejected(self):
        with pytest.raises(InputError):
            Vnf("f1", 0.0, "s1")
        with pytest.raises(InputError):
            Vnf("f1", 101.0, "s1")

    def test_document_round_trip(self):
        problem = two_by_two()
        assert problem_from_dict(problem_to_dict(problem)) == problem

    def test_missing_field_rejected(self):
        with pytest.raises(InputError):
            problem_from_dict({"machines": [], "vnfs": []})

    def test_non_numeric_field_rejected(self):
        doc = problem_to_dict(two_by_two())
        doc["machines"][0]["base_competition"] = "x"
        with pytest.raises(InputError, match="^base_competition must lie in"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("build, field", [
        (lambda: Machine("m", LinearProfile(9.0, 0.05), core_count="2"), "core_count"),
        (lambda: Machine("m", LinearProfile(9.0, 0.05), core_count=1.5), "core_count"),
        (lambda: Machine("m", LinearProfile(9.0, 0.05), base_competition="5"), "base_competition"),
        (lambda: Vnf("v", "5", "s"), "cpu_share"),
        (lambda: LinearProfile("1", 0.1), "a"),
        (lambda: NRootProfile(None, 1.0, 2), "c"),
        (lambda: find_crossovers(LinearProfile(8.0, 0.05), NRootProfile(6.0, 1.2, 2), 100.0,
                                 cells=2.5), "cells"),
        (lambda: problem_from_dict({**problem_to_dict(two_by_two()), "machines": [
            {"id": "m1", "profile": {"kind": "linear", "a": 9.0, "b": 0.05}, "core_count": 1.5}
        ]}), "core_count"),
    ])
    def test_wrong_typed_argument_names_its_field(self, build, field):
        with pytest.raises(InputError, match=field):
            build()

    def test_integral_float_core_count_is_accepted(self):
        core_count = Machine("m", LinearProfile(9.0, 0.05), core_count=2.0).core_count
        assert core_count == 2 and isinstance(core_count, int)
        doc = problem_to_dict(two_by_two())
        doc["machines"][0]["core_count"] = 4.0
        assert problem_from_dict(doc).machines[0].core_count == 4

    def test_range_errors_keep_their_message(self):
        doc = problem_to_dict(two_by_two())
        doc["machines"][0]["base_competition"] = 150.0
        with pytest.raises(InputError, match="^base_competition must lie in"):
            problem_from_dict(doc)


@st.composite
def small_problems(draw):
    """Random instances of at most 6 VNFs on at most 3 machines, both families."""
    profiles = st.one_of(
        st.builds(LinearProfile, st.floats(5.0, 12.0), st.floats(-0.1, 0.2)),
        st.builds(NRootProfile, st.floats(5.0, 12.0), st.floats(-1.0, 2.0), st.integers(2, 6)),
    )
    machines = tuple(
        Machine(f"m{i}", profile, base_competition=base)
        for i, (profile, base) in enumerate(
            draw(st.lists(st.tuples(profiles, st.floats(0.0, 60.0)), min_size=1, max_size=3))
        )
    )
    slices = tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))
    vnfs = tuple(
        Vnf(f"f{j}", share, slice_id)
        for j, (share, slice_id) in enumerate(
            draw(st.lists(st.tuples(st.floats(1.0, 40.0), st.sampled_from(slices)), max_size=6))
        )
    )
    return PlacementProblem(machines=machines, vnfs=vnfs, slices=slices)


@settings(max_examples=150, deadline=None)
@given(small_problems())
def test_exhaustive_total_never_exceeds_a_feasible_greedy_total(problem):
    greedy = place_greedy(problem)
    if greedy.feasible:
        exhaustive = place_exhaustive(problem)
        assert exhaustive.feasible
        assert exhaustive.total_power <= greedy.total_power


def result_json(result):
    return json.dumps(placement.result_to_dict(result))


# exact binary fractions: loads that sum to exactly 100.0 and shares that tie
EXACT_SHARES = (6.25, 12.5, 25.0, 37.5, 50.0)
EXACT_BASES = (0.0, 25.0, 50.0, 75.0)


@st.composite
def dp_problems(draw):
    """At most 6 VNFs on at most 3 machines, or 4 VNFs on 4: non-monotone
    and negative-watt profiles, watts near the float maximum, overfull and
    exactly full machines, machines that share a profile and base load, and
    equal shares."""
    n_machines = draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(
        st.builds(LinearProfile, st.floats(-10.0, 12.0), st.floats(-0.3, 0.3)),
        st.builds(NRootProfile, st.floats(-10.0, 12.0), st.floats(-3.0, 3.0), st.integers(2, 6)),
        st.builds(LinearProfile, st.sampled_from((-1e308, -0.9e308, 0.5e308, 1e308)),
                  st.sampled_from((-1e307, -2e306, 0.0, 2e306, 1e307))),
    ), min_size=1, max_size=n_machines))
    bases = st.one_of(st.sampled_from(EXACT_BASES), st.floats(0.0, 90.0))
    machines = tuple(
        Machine(f"m{k}", draw(st.sampled_from(pool)), base_competition=draw(bases))
        for k in range(n_machines)
    )
    slices = tuple(f"s{i}" for i in range(draw(st.integers(1, 3))))
    shares = st.one_of(st.sampled_from(EXACT_SHARES), st.floats(1.0, 70.0))
    vnfs = tuple(
        Vnf(f"f{j}", draw(shares), draw(st.sampled_from(slices)))
        for j in range(draw(st.integers(0, 4 if n_machines == 4 else 6)))
    )
    return PlacementProblem(machines=machines, vnfs=vnfs, slices=slices)


@settings(max_examples=500, deadline=None)
@given(dp_problems())
def test_dp_matches_the_original_enumerator_byte_for_byte(problem):
    assert result_json(place_exhaustive(problem)) == result_json(reference_place_exhaustive(problem))


ROOT = NRootProfile(7.0, -0.8, 3)


@pytest.mark.parametrize("profiles, bases, shares, feasible", [
    ((ROOT, ROOT), (0.0, 0.0), (25.0, 25.0, 25.0, 25.0), True),
    ((ROOT, ROOT), (50.0, 50.0), (25.0, 25.0, 25.0, 25.0), True),
    ((ROOT, ROOT), (0.0, 50.0), (60.0, 60.0, 60.0), False),
    ((LinearProfile(1e308, 1e308), LinearProfile(-1e308, -1e308)), (0.0, 0.0), (10.0,) * 3, True),
    ((LinearProfile(1e308, 0.0), LinearProfile(1e308, 0.0)), (0.0, 0.0), (10.0,) * 3, True),
    ((LinearProfile(100.0, -10.0), LinearProfile(0.0, 1e307)), (0.0, 0.0), (60.0, 60.0), True),
    ((LinearProfile(1e308, 1e308), LinearProfile(-1e308, -1e308)), (10.0, 10.0), (60.0, 60.0),
     True),
    ((LinearProfile(-0.8755e308, 1.89e306),), (0.0,), (5.0, 5.0, 90.0), True),
    ((LinearProfile(-0.8755e308, 1.89e306), LinearProfile(0.0, 0.0)), (0.0, 96.0),
     (5.0, 5.0, 90.0), True),
    ((LinearProfile(0.51, -0.13), LinearProfile(4.86, -0.19)), (0.0, 0.0),
     (25.93, 25.0, 12.5, 25.0, 12.5), True),
    ((LinearProfile(1e308, 1e307), LinearProfile(1e308, -1e307)), (25.0, 25.0),
     (25.0, 26.48, 12.5, 25.0), True),
], ids=["identical machines, equal shares", "both machines exactly full", "nothing fits",
        "+inf and -inf watts", "sums past the float range", "inf watt on an overfull machine",
        "NaN totals only where each machine fits", "machine sum overflows, slice sums do not",
        "machine sum overflows, the other machine is full",
        "machine and slice sums round apart", "NaN totals scored in enumeration order"])
def test_dp_matches_the_original_enumerator_on_edge_instances(profiles, bases, shares, feasible):
    problem = PlacementProblem(
        machines=tuple(Machine(f"m{k}", p, base_competition=b)
                       for k, (p, b) in enumerate(zip(profiles, bases))),
        vnfs=tuple(Vnf(f"f{j}", share, f"s{j % 2}") for j, share in enumerate(shares)),
        slices=("s0", "s1"),
    )
    result = place_exhaustive(problem)
    assert result.feasible is feasible
    assert result_json(result) == result_json(reference_place_exhaustive(problem))


def test_dp_scores_a_handful_of_candidates_on_a_benchmark_instance(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import placement_doc
    finally:
        sys.path.pop(0)
    problem = problem_from_dict(placement_doc(random.Random(3), 5))
    assert (len(problem.vnfs), len(problem.machines)) == (8, 4)
    calls = []
    original = placement.evaluate_assignment
    monkeypatch.setattr(placement, "evaluate_assignment",
                        lambda *a: calls.append(1) or original(*a))
    place_exhaustive(problem)
    assert 1 <= len(calls) <= 16  # enumeration scores all 4**8 = 65,536
