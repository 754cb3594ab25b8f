"""Process-level power under CPU competition: models, fitting, placement.

The package models the watts a process draws as a function of the CPU
percentage consumed by competing processes, with a linear family for
low-core-count machines and an n-th-root family for higher core counts.
On top of the models sit trace simulation and ingestion, least-squares
fitting with model selection, crossover analysis between the two families,
and energy-aware placement of VNFs onto machines.
"""

from .analysis import (
    CrossoverResult,
    SignInterval,
    best_machine,
    crossover_result_to_dict,
    derivative_threshold,
    difference,
    find_crossovers,
)
from .errors import ProcwattError
from .fitting import (
    AggregatedPoint,
    AggregatedPoints,
    FitReport,
    ModelSelection,
    TraceSample,
    TraceSamples,
    aggregate,
    fit_linear,
    fit_nroot,
    fit_report_to_dict,
    points_from_samples,
    select_model,
    selection_to_dict,
    t_test_slope,
    two_sided_p_value,
)
from .placement import (
    Machine,
    PlacementProblem,
    PlacementResult,
    Vnf,
    evaluate_assignment,
    faced_competition,
    place_exhaustive,
    place_greedy,
    problem_from_dict,
    problem_to_dict,
    result_to_dict,
    slice_power,
    vnf_power,
)
from .profiles import (
    LinearProfile,
    NRootProfile,
    PowerProfile,
    ReferenceMachineModel,
    derivative,
    evaluate,
    integrate_energy,
    machine_power,
    profile_from_dict,
    profile_to_dict,
)
from .simulate import ProtocolConfig, competition_levels, generate_trace, samples_per_level
from .traceio import TraceFile, read_trace, trace_to_string, write_trace

__version__ = "0.1.0"

# every public name bound above except the submodules, which importing binds too
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__name__", None) != f"{__name__}.{name}"
)
