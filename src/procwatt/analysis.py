"""Comparing a linear and an n-root profile over the competition domain.

The central object is the pointwise difference D(p) = W_lin(p) - W_rt(p).
Where D is negative the linear-profile machine draws less power for the same
competition; where positive, the n-root machine wins.  Because the n-root
derivative decays while the linear one is constant, D is eventually
increasing: above the threshold p* = (d / (n*b))**(1/k) with k = 1 - 1/n its
derivative b - d/(n*p**k) is strictly positive, which is what guarantees a
crossover exists once D starts out negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

import numpy as np

from .errors import InputError, NoThresholdError, ProfileKindError
from .profiles import LinearProfile, NRootProfile, PowerProfile, _number, evaluate

DEFAULT_SCAN_CELLS = 1024
REFINE_TOLERANCE = 1e-6


def difference(lin: PowerProfile, root: PowerProfile, p: float) -> float:
    """D(p): watts saved by the second profile relative to the first."""
    return evaluate(lin, p) - evaluate(root, p)


def _require_pair(lin, root):
    if not isinstance(lin, LinearProfile):
        raise ProfileKindError(f"expected a linear profile, got {type(lin).__name__}")
    if not isinstance(root, NRootProfile):
        raise ProfileKindError(f"expected an n-root profile, got {type(root).__name__}")


def derivative_threshold(lin: LinearProfile, root: NRootProfile) -> float:
    """Competition level above which D(p) is strictly increasing.

    Returns (d / (n*b))**(1/k) with k = 1 - 1/n.  With d <= 0 the n-root term
    never outpaces the line, so the threshold is 0; with b <= 0 the difference
    never turns increasing and no threshold exists, nor does one beyond the
    float range (a tiny positive b).
    """
    _require_pair(lin, root)
    b, d, n = lin.b, root.d, root.n
    if b <= 0:
        raise NoThresholdError(
            f"difference derivative never becomes positive for b = {b}"
        )
    if d <= 0:
        return 0.0
    k = 1.0 - 1.0 / n
    try:
        threshold = (d / (n * b)) ** (1.0 / k)
    except OverflowError:  # ** raises where / gives inf
        threshold = np.inf
    if threshold == np.inf:
        raise NoThresholdError(f"the threshold lies beyond the float range for b = {b}")
    return threshold


@dataclass(frozen=True)
class SignInterval:
    """Open-below subinterval of (0, p_max] on which D keeps one sign."""

    lo: float
    hi: float
    sign: int


@dataclass(frozen=True)
class CrossoverResult:
    """Zeros of D on (0, p_max], the derivative threshold, and sign intervals.

    derivative_threshold is None when it does not exist (b <= 0) and may
    exceed p_max; crossovers are ascending and exclude the boundary p = 0,
    where D merely compares intercepts.
    """

    crossovers: Tuple[float, ...]
    derivative_threshold: Optional[float]
    sign_intervals: Tuple[SignInterval, ...]


def _bisect(f, lo, hi, f_lo, tol=REFINE_TOLERANCE):
    # invariant: f changes sign on [lo, hi]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def find_crossovers(
    lin: LinearProfile,
    root: NRootProfile,
    p_max: float,
    cells: int = DEFAULT_SCAN_CELLS,
) -> CrossoverResult:
    """Locate all sign changes of D(p) on (0, p_max].

    A uniform grid scan (starting at the first positive grid point, which
    sidesteps the p = 0 derivative singularity) brackets each sign change and
    bisection refines it to within 1e-6.  An empty crossover list is a valid
    outcome.  Sign intervals are evaluated at the midpoints of the stretches
    between consecutive crossovers.
    """
    _require_pair(lin, root)
    p_max = _number("p_max", p_max, 0)
    cells = _number("cells", cells, 1, integer=True)

    threshold: Optional[float]
    try:
        threshold = derivative_threshold(lin, root)
    except NoThresholdError:
        threshold = None

    def d_of(p: float) -> float:
        return difference(lin, root, p)

    if p_max == 0:
        return CrossoverResult(
            crossovers=(), derivative_threshold=threshold, sign_intervals=()
        )

    grid = np.linspace(0.0, p_max, cells + 1)[1:]
    values = [d_of(p) for p in grid]

    crossings: list[float] = []
    for i in range(len(grid)):
        if values[i] == 0.0:
            crossings.append(float(grid[i]))
        elif i + 1 < len(grid) and values[i + 1] != 0.0:
            if (values[i] > 0) != (values[i + 1] > 0):
                crossings.append(
                    _bisect(d_of, float(grid[i]), float(grid[i + 1]), values[i])
                )

    boundaries = [0.0] + crossings + [p_max]
    intervals = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        if hi <= lo:
            continue
        mid_value = d_of(0.5 * (lo + hi))
        sign = 0 if mid_value == 0.0 else (1 if mid_value > 0 else -1)
        intervals.append(SignInterval(lo=lo, hi=hi, sign=sign))

    return CrossoverResult(
        crossovers=tuple(crossings),
        derivative_threshold=threshold,
        sign_intervals=tuple(intervals),
    )


def best_machine(
    profiles: Mapping[str, PowerProfile], competition: Mapping[str, float]
) -> str:
    """Id of the machine whose profile draws the least power at its competition.

    Both maps must cover the same machine ids.  Ties go to the smallest id so
    placement stays deterministic.
    """
    if not profiles:
        raise InputError("no machines to choose from")
    if set(profiles) != set(competition):
        raise InputError(
            f"machine id mismatch: profiles={sorted(profiles)}, competition={sorted(competition)}"
        )
    best_id = None
    best_watts = None
    for machine_id in sorted(profiles):
        watts = evaluate(profiles[machine_id], competition[machine_id])
        if best_watts is None or watts < best_watts:
            best_id, best_watts = machine_id, watts
    return best_id


def crossover_result_to_dict(result: CrossoverResult) -> dict:
    return {
        "crossovers": list(result.crossovers),
        "derivative_threshold": result.derivative_threshold,
        "sign_intervals": [
            {"interval": [iv.lo, iv.hi], "sign": iv.sign}
            for iv in result.sign_intervals
        ],
    }
