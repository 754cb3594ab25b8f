"""Every scalar argument obeys one contract.

A numeric field stores a float (or, for an integer field, the exact int) equal
to the value it was given, or raises its documented error type naming the
field; an id stores the string it was given.  Nothing else escapes: no
TypeError, OverflowError or silent NaN.
"""

import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procwatt import (
    LinearProfile,
    Machine,
    NRootProfile,
    PlacementProblem,
    ProtocolConfig,
    ReferenceMachineModel,
    TraceSamples,
    Vnf,
    aggregate,
    find_crossovers,
    fit_linear,
    fit_nroot,
    machine_power,
    place_exhaustive,
    points_from_samples,
    problem_from_dict,
    problem_to_dict,
    select_model,
)
from procwatt.errors import ConfigError, DomainError, InputError

LIN = LinearProfile(8.0, 0.05)
ROOT = NRootProfile(6.0, 1.2, 2)
# competition 0 keeps p**(1/n) spread out for any n, however large
POINTS = points_from_samples(TraceSamples([0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 20.0, 40.0],
                                          [5.0, 6.0, 7.0, 9.0]))
REPORTS = (fit_linear(POINTS), fit_nroot(POINTS))
SAMPLES = TraceSamples([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
# nothing to place, so no size limit >= 0 is exceeded
EMPTY = PlacementProblem((), (), ())
ONE = PlacementProblem((Machine("m", LIN),), (Vnf("v", 5.0, "s"),), ("s",))
CONFIG_FIELDS = ("noise_sigma", "seed", "start_pct", "step_pct", "dwell_seconds",
                 "sample_interval_seconds", "cycles")

VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)

# (field, what it stores: "real", "integer", "id" or None when nothing is kept,
#  its error type, build(value) -> the stored value)
FIELDS = [
    ("LinearProfile.a", "real", InputError, lambda v: LinearProfile(v, 0.05).a),
    ("LinearProfile.b", "real", InputError, lambda v: LinearProfile(9.0, v).b),
    ("NRootProfile.c", "real", InputError, lambda v: NRootProfile(v, 1.0, 2).c),
    ("NRootProfile.d", "real", InputError, lambda v: NRootProfile(6.0, v, 2).d),
    ("NRootProfile.n", "integer", InputError, lambda v: NRootProfile(6.0, 1.0, v).n),
    ("ReferenceMachineModel.p_idle", "real", InputError,
     lambda v: ReferenceMachineModel(v, sys.float_info.max).p_idle),
    ("ReferenceMachineModel.p_max", "real", InputError,
     lambda v: ReferenceMachineModel(0.0, v).p_max),
    ("machine_power.u", "real", DomainError,
     lambda v: machine_power(ReferenceMachineModel(0.0, 1.0), v)),
    ("Machine.id", "id", InputError, lambda v: Machine(v, LIN).id),
    ("Machine.base_competition", "real", InputError,
     lambda v: Machine("m", LIN, base_competition=v).base_competition),
    ("Machine.core_count", "integer", InputError, lambda v: Machine("m", LIN, core_count=v).core_count),
    ("Vnf.id", "id", InputError, lambda v: Vnf(v, 5.0, "s").id),
    ("Vnf.cpu_share", "real", InputError, lambda v: Vnf("v", v, "s").cpu_share),
    ("Vnf.slice_id", "id", InputError, lambda v: Vnf("v", 5.0, v).slice_id),
    ("PlacementProblem.slices", "id", InputError, lambda v: PlacementProblem((), (), (v,)).slices[0]),
    ("ProtocolConfig.baseline_load_q", "real", ConfigError,
     lambda v: ProtocolConfig(v).baseline_load_q),
    *(
        (f"ProtocolConfig.{name}", "integer" if name in ("seed", "cycles") else "real", ConfigError,
         lambda v, name=name: getattr(ProtocolConfig(5.0, **{name: v}), name))
        for name in CONFIG_FIELDS
    ),
    # the last sign interval ends at p_max
    ("find_crossovers.p_max", "real", InputError,
     lambda v: max((iv.hi for iv in find_crossovers(LIN, ROOT, v, cells=8).sign_intervals),
                   default=0.0)),
    # p_max = 0 returns before the scan grid is built
    ("find_crossovers.cells", None, InputError, lambda v: find_crossovers(LIN, ROOT, 0.0, cells=v)),
    ("aggregate.bin_width", None, InputError, lambda v: aggregate(SAMPLES, bin_width=v)),
    ("fit_nroot.n_grid", "integer", InputError, lambda v: fit_nroot(POINTS, n_grid=[v]).profile.n),
    ("select_model.tie_tolerance", None, InputError,
     lambda v: select_model(*REPORTS, tie_tolerance=v)),
    ("place_exhaustive.max_vnfs", None, InputError, lambda v: place_exhaustive(EMPTY, max_vnfs=v)),
    ("place_exhaustive.max_machines", None, InputError,
     lambda v: place_exhaustive(EMPTY, max_machines=v)),
]


@pytest.mark.parametrize("field, kind, error, build", FIELDS, ids=[f[0] for f in FIELDS])
@settings(max_examples=60, deadline=None)
@given(VALUES)
@example(2.0)
@example(10**400)
@example(math.nan)
@example("9")
@example(True)
def test_each_field_stores_its_value_or_raises_its_error(field, kind, error, build, value):
    try:
        stored = build(value)
    except error:
        return
    if kind == "real":
        assert type(stored) is float and stored == float(value)
    elif kind == "integer":
        assert type(stored) is int and stored == value
    elif kind == "id":
        assert stored == value and isinstance(stored, str)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: find_crossovers(LIN, ROOT, p_max="5"), "p_max"),
        (lambda: LinearProfile(10**400, 0.0), "a"),
        (lambda: Machine(5, LIN), "machine id"),
        (lambda: Vnf("v", 5.0, None), "slice_id"),
        (lambda: place_exhaustive(ONE, max_vnfs=math.nan), "max_vnfs"),
        (lambda: place_exhaustive(ONE, max_machines="4"), "max_machines"),
    ],
    ids=["p_max string", "a beyond the float range", "numeric machine id", "null slice id",
         "NaN vnf limit", "string machine limit"],
)
def test_former_escapes_raise_input_error_naming_the_field(build, field):
    with pytest.raises(InputError, match=f"^{field} "):
        build()


def test_library_built_problem_round_trips_through_its_document():
    problem = PlacementProblem(
        machines=(Machine("m", LIN, base_competition=30, core_count=2.0),),
        vnfs=(Vnf("v", 5, "s"),),
        slices=("s",),
    )
    text = json.dumps(problem_to_dict(problem))
    assert '"base_competition": 30.0, "core_count": 2}' in text
    assert problem_from_dict(json.loads(text)) == problem
    assert json.dumps(problem_to_dict(problem_from_dict(json.loads(text)))) == text
