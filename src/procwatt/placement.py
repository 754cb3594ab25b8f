"""Energy-aware placement of VNFs onto machines with known power profiles.

Machines expose a power profile and a pre-existing load; VNFs carry a CPU
share and belong to exactly one slice.  A placed VNF faces competition equal
to the machine's base load plus the shares of the other VNFs co-located with
it (never its own), and all powers are evaluated on the final configuration,
which makes the total independent of placement order for a fixed assignment.
Slice power is the sum of its members' powers and the group total is the sum
over slices.

An assignment is infeasible when any VNF's faced competition exceeds
100 minus its own share, i.e. the machine would be allocated past 100%.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .analysis import best_machine
from .errors import InputError, SizeLimitError
from .profiles import PowerProfile, _document, _store, evaluate, profile_from_dict

MAX_EXHAUSTIVE_VNFS = 8
MAX_EXHAUSTIVE_MACHINES = 4


def _require_id(name: str, value) -> None:
    if not isinstance(value, str):
        raise InputError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class Machine:
    id: str
    profile: PowerProfile
    base_competition: float = 0.0
    core_count: int = 1

    def __post_init__(self):
        _require_id("machine id", self.id)
        _store(self, "base_competition", 0, 100)
        _store(self, "core_count", 1, integer=True)


@dataclass(frozen=True)
class Vnf:
    id: str
    cpu_share: float
    slice_id: str

    def __post_init__(self):
        _require_id("vnf id", self.id)
        _store(self, "cpu_share", 0, 100, open_lo=True)
        _require_id("slice_id", self.slice_id)


@dataclass(frozen=True)
class PlacementProblem:
    machines: Tuple[Machine, ...]
    vnfs: Tuple[Vnf, ...]
    slices: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "machines", tuple(self.machines))
        object.__setattr__(self, "vnfs", tuple(self.vnfs))
        object.__setattr__(self, "slices", tuple(self.slices))
        for slice_id in self.slices:
            _require_id("slice id", slice_id)
        for name, ids in (
            ("machine", [m.id for m in self.machines]),
            ("vnf", [v.id for v in self.vnfs]),
            ("slice", list(self.slices)),
        ):
            if len(ids) != len(set(ids)):
                raise InputError(f"duplicate {name} ids: {ids}")
        known = set(self.slices)
        for v in self.vnfs:
            if v.slice_id not in known:
                raise InputError(f"vnf {v.id!r} references unknown slice {v.slice_id!r}")

    def machine(self, machine_id: str) -> Machine:
        for m in self.machines:
            if m.id == machine_id:
                return m
        raise InputError(f"unknown machine id {machine_id!r}")

    def vnf(self, vnf_id: str) -> Vnf:
        for v in self.vnfs:
            if v.id == vnf_id:
                return v
        raise InputError(f"unknown vnf id {vnf_id!r}")


@dataclass(frozen=True)
class PlacementResult:
    """Final configuration: who went where and what it costs.

    Dicts are insertion-ordered canonically (VNFs by id, slices in problem
    order) and should be treated as read-only.
    """

    assignment: Dict[str, str]
    per_vnf_power: Dict[str, float]
    per_slice_power: Dict[str, float]
    total_power: float
    feasible: bool


def faced_competition(
    problem: PlacementProblem, assignment: Mapping[str, str], vnf_id: str
) -> float:
    """Competition the given VNF meets: machine base load plus co-located shares.

    The VNF's own share is excluded.  Shares are summed in vnf-id order so the
    value is deterministic for a fixed assignment.
    """
    vnf = problem.vnf(vnf_id)
    try:
        machine_id = assignment[vnf.id]
    except KeyError:
        raise InputError(f"vnf {vnf_id!r} is not assigned") from None
    machine = problem.machine(machine_id)
    return machine.base_competition + sum(
        v.cpu_share
        for v in sorted(problem.vnfs, key=lambda v: v.id)
        if v.id != vnf_id and assignment.get(v.id) == machine_id
    )


def vnf_power(
    problem: PlacementProblem, assignment: Mapping[str, str], vnf_id: str
) -> float:
    """Watts drawn by one assigned VNF on the final configuration."""
    if vnf_id not in assignment:
        raise InputError(f"vnf {vnf_id!r} is not assigned")
    machine = problem.machine(assignment[vnf_id])
    return evaluate(machine.profile, faced_competition(problem, assignment, vnf_id))


def evaluate_assignment(
    problem: PlacementProblem, assignment: Mapping[str, str]
) -> PlacementResult:
    """Compute per-VNF, per-slice and total power for a complete assignment.

    Every VNF must be assigned exactly once.  Feasibility is checked per
    machine: base load plus the sum of hosted shares may not exceed 100.
    """
    vnfs = sorted(problem.vnfs, key=lambda v: v.id)
    if set(assignment) != {v.id for v in vnfs}:
        raise InputError("assignment must cover every vnf exactly once")

    load = {m.id: m.base_competition for m in problem.machines}
    for v in vnfs:
        machine_id = assignment[v.id]
        if machine_id not in load:
            raise InputError(f"unknown machine id {machine_id!r}")
        load[machine_id] += v.cpu_share
    feasible = all(total <= 100.0 for total in load.values())

    per_vnf: Dict[str, float] = {}
    for v in vnfs:
        per_vnf[v.id] = vnf_power(problem, assignment, v.id)

    per_slice: Dict[str, float] = {s: 0.0 for s in problem.slices}
    for v in vnfs:
        per_slice[v.slice_id] += per_vnf[v.id]
    total = 0.0
    for s in problem.slices:
        total += per_slice[s]

    return PlacementResult(
        assignment={v.id: assignment[v.id] for v in vnfs},
        per_vnf_power=per_vnf,
        per_slice_power=per_slice,
        total_power=total,
        feasible=feasible,
    )


def slice_power(result: PlacementResult, slice_id: str) -> float:
    """Watts attributed to one slice; empty slices cost 0."""
    try:
        return result.per_slice_power[slice_id]
    except KeyError:
        raise InputError(f"unknown slice id {slice_id!r}") from None


def place_greedy(problem: PlacementProblem) -> PlacementResult:
    """Assign VNFs one at a time to the momentarily cheapest machine.

    VNFs are processed in id order; each one picks the machine whose profile,
    evaluated at that machine's current load, is lowest (ties to the smallest
    machine id).  Powers are then recomputed on the final configuration.
    Capacity overruns mark the result infeasible instead of failing.
    """
    if not problem.machines and problem.vnfs:
        raise InputError("no machines to place on")
    profiles = {m.id: m.profile for m in problem.machines}
    load = {m.id: m.base_competition for m in problem.machines}
    assignment: Dict[str, str] = {}
    for v in sorted(problem.vnfs, key=lambda v: v.id):
        chosen = best_machine(profiles, load)
        assignment[v.id] = chosen
        load[chosen] += v.cpu_share
    return evaluate_assignment(problem, assignment)


def place_exhaustive(
    problem: PlacementProblem,
    max_vnfs: int = MAX_EXHAUSTIVE_VNFS,
    max_machines: int = MAX_EXHAUSTIVE_MACHINES,
) -> PlacementResult:
    """Minimum-total-power assignment by full enumeration.

    Enumerates every machines**vnfs assignment (ids in sorted order, so ties
    resolve to the lexicographically smallest assignment vector) and keeps
    the feasible one with the lowest total.  Infeasible candidates are
    skipped; if nothing is feasible the cheapest infeasible configuration is
    returned, flagged.  Instances beyond the size limits are refused.
    """
    if len(problem.vnfs) > max_vnfs:
        raise SizeLimitError(
            f"{len(problem.vnfs)} vnfs exceeds exhaustive limit {max_vnfs}"
        )
    if len(problem.machines) > max_machines:
        raise SizeLimitError(
            f"{len(problem.machines)} machines exceeds exhaustive limit {max_machines}"
        )
    if not problem.machines and problem.vnfs:
        raise InputError("no machines to place on")

    vnf_ids = [v.id for v in sorted(problem.vnfs, key=lambda v: v.id)]
    machine_ids = sorted(m.id for m in problem.machines)
    if not vnf_ids:
        return evaluate_assignment(problem, {})

    best = None
    best_infeasible = None
    for combo in itertools.product(machine_ids, repeat=len(vnf_ids)):
        result = evaluate_assignment(problem, dict(zip(vnf_ids, combo)))
        if result.feasible:
            if best is None or result.total_power < best.total_power:
                best = result
        elif best is None and (
            best_infeasible is None
            or result.total_power < best_infeasible.total_power
        ):
            best_infeasible = result
    return best if best is not None else best_infeasible


def problem_from_dict(data: dict) -> PlacementProblem:
    """Build a problem from its JSON document form.

    The values go to the constructors as they are: ids must be JSON strings
    and numbers JSON numbers (a numeric string or a bool is refused, naming
    the field); core_count takes an integral number such as 2.0.
    """
    if not isinstance(data, dict):
        raise InputError("placement problem document must be an object")
    try:
        return PlacementProblem(
            machines=[
                Machine(
                    id=m["id"],
                    profile=profile_from_dict(m["profile"]),
                    base_competition=m.get("base_competition", 0.0),
                    core_count=m.get("core_count", 1),
                )
                for m in data["machines"]
            ],
            vnfs=[
                Vnf(id=v["id"], cpu_share=v["cpu_share"], slice_id=v["slice_id"])
                for v in data["vnfs"]
            ],
            slices=data["slices"],
        )
    except KeyError as exc:
        raise InputError(f"placement document is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:  # a non-list where a list belongs, or a non-object entry
        raise InputError(f"bad placement document: {exc}") from exc


def problem_to_dict(problem: PlacementProblem) -> dict:
    return _document(problem)


def result_to_dict(result: PlacementResult) -> dict:
    return _document(result)
