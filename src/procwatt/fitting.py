"""Least-squares fitting of power profiles to competition/power traces.

The pipeline mirrors the measurement methodology: raw samples are binned by
competition level, a robust central power estimate is taken per bin, and the
two candidate profiles are fitted by ordinary least squares.  The n-root fit
is made linear per candidate n by substituting x = p**(1/n) and scanning a
small grid of n values.  Slope significance uses the standard two-sided
Student-t test.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateDesignError,
    DegenerateStatisticsError,
    InputError,
    InsufficientDataError,
    MismatchError,
)
from .profiles import LinearProfile, NRootProfile, PowerProfile, profile_to_dict

DEFAULT_BIN_WIDTH = 5.0
DEFAULT_N_GRID = range(2, 9)
DEFAULT_TIE_TOLERANCE = 0.02

LINEAR = "linear"
NROOT = "nroot"
MIXED = "mixed"


def _require_finite(name, value):
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TraceSample:
    """One telemetry reading: time in seconds, competition percent, watts."""

    t: float
    competition: float
    power: float

    def __post_init__(self):
        _require_finite("t", self.t)
        _require_finite("competition", self.competition)
        _require_finite("power", self.power)
        if not 0.0 <= self.competition <= 100.0:
            raise InputError(
                f"competition must lie in [0, 100], got {self.competition}"
            )
        if self.power < 0.0:
            raise InputError(f"power must be >= 0, got {self.power}")


def _validated_sample(t, competition, power):
    """A TraceSample built from values already validated as columns."""
    sample = object.__new__(TraceSample)
    sample.__dict__.update(t=t, competition=competition, power=power)
    return sample


class TraceSamples(Sequence):
    """An immutable, validated trace held as three float64 columns.

    ``t``, ``competition`` and ``power`` are read-only arrays of equal length;
    every row satisfies the TraceSample contract.  The object is a sequence of
    TraceSample: ``len`` is O(1), indexing and iteration yield TraceSample
    objects, and it compares equal to another TraceSamples with the same
    columns or to a list or tuple of equal samples.

    Build one from arrays with ``TraceSamples(t, competition, power)``, or
    from any iterable of samples with ``TraceSamples.of(samples)``.
    """

    __slots__ = ("_columns",)

    def __init__(self, t, competition, power):
        columns = tuple(np.array(col, dtype=np.float64) for col in (t, competition, power))
        if any(col.ndim != 1 for col in columns) or len({col.size for col in columns}) > 1:
            raise InputError(
                "t, competition and power must be one-dimensional and of equal length, "
                f"got shapes {[col.shape for col in columns]}"
            )
        t, competition, power = columns
        bad = ~(
            np.isfinite(t)
            & np.isfinite(power)
            & (competition >= 0.0)
            & (competition <= 100.0)
            & (power >= 0.0)
        )
        if bad.any():
            i = int(np.argmax(bad))
            try:
                TraceSample(t[i].item(), competition[i].item(), power[i].item())
            except InputError as exc:
                raise InputError(f"sample {i}: {exc}") from None
        for col in columns:
            col.flags.writeable = False
        self._columns = columns

    @classmethod
    def of(cls, samples: Iterable[TraceSample]) -> "TraceSamples":
        """The columns of any iterable of samples; a TraceSamples is returned as is."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        return cls(
            [s.t for s in samples],
            [s.competition for s in samples],
            [s.power for s in samples],
        )

    t = property(lambda self: self._columns[0], doc="Timestamps in seconds.")
    competition = property(lambda self: self._columns[1], doc="Competition in percent.")
    power = property(lambda self: self._columns[2], doc="Power in watts.")

    def __len__(self) -> int:
        return self._columns[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceSamples(*(col[index] for col in self._columns))
        return _validated_sample(*(col[index].item() for col in self._columns))

    def __iter__(self):
        return map(_validated_sample, *(col.tolist() for col in self._columns))

    def __eq__(self, other):
        if isinstance(other, TraceSamples):
            return all(map(np.array_equal, self._columns, other._columns))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"TraceSamples(<{len(self)} samples>)"


@dataclass(frozen=True)
class AggregatedPoint:
    """Per-bin summary of samples sharing a competition bin.

    competition is the mean of the member samples' competition values (the
    protocol holds each level constant, so this is normally the level itself),
    power the median of the member powers, dispersion their population
    standard deviation.
    """

    competition: float
    power: float
    count: int
    dispersion: float


def aggregate(samples: Iterable[TraceSample], bin_width: float = DEFAULT_BIN_WIDTH):
    """Bin samples by competition and summarize each bin.

    Samples land in bin floor(competition / bin_width).  Member values are
    sorted before reduction so the output is identical for any permutation of
    the input.  Returns a list of AggregatedPoint sorted by competition.
    """
    if not bin_width > 0:
        raise InputError(f"bin_width must be > 0, got {bin_width}")
    columns = TraceSamples.of(samples)
    if not len(columns):
        raise InsufficientDataError("no samples to aggregate")
    keys = np.floor(columns.competition / bin_width)
    # each bin is one contiguous slice, its competitions and powers each sorted
    by_competition = np.lexsort((columns.competition, keys))
    comps = columns.competition[by_competition]
    powers = columns.power[np.lexsort((columns.power, keys))]
    keys = keys[by_competition]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]).tolist()
    points = []
    for lo, hi in zip(starts, starts[1:] + [keys.size]):
        members = powers[lo:hi]
        points.append(
            AggregatedPoint(
                competition=float(np.mean(comps[lo:hi])),
                power=float(np.median(members)),
                count=hi - lo,
                dispersion=float(np.std(members)),
            )
        )
    return points


def points_from_samples(samples: Iterable[TraceSample]):
    """One unit-weight point per raw sample, for fitting without binning.

    Points are ordered by (competition, power, t).
    """
    columns = TraceSamples.of(samples)
    if not len(columns):
        raise InsufficientDataError("no samples")
    order = np.lexsort((columns.t, columns.power, columns.competition))
    return list(
        map(
            AggregatedPoint,
            columns.competition[order].tolist(),
            columns.power[order].tolist(),
            repeat(1),
            repeat(0.0),
        )
    )


@dataclass(frozen=True)
class FitReport:
    """OLS fit of one profile family.

    std_errors, t_statistics and p_values are ordered (intercept, slope).
    t and p entries are None when the fit is degenerate (zero residual or no
    degrees of freedom), which keeps serialization total.
    """

    profile: PowerProfile
    std_errors: Tuple[float, float]
    t_statistics: Tuple[Optional[float], Optional[float]]
    p_values: Tuple[Optional[float], Optional[float]]
    r_squared: float
    adj_r_squared: float
    sse: float
    n_points: int


def _ols(x: np.ndarray, y: np.ndarray):
    """Closed-form simple regression y = intercept + slope*x with diagnostics."""
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    if np.unique(x).size < 2:
        raise DegenerateDesignError("all competition values are equal")
    x_bar = float(np.mean(x))
    y_bar = float(np.mean(y))
    dx = x - x_bar
    sxx = float(np.dot(dx, dx))
    sxy = float(np.dot(dx, y - y_bar))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    resid = y - (intercept + slope * x)
    sse = float(np.dot(resid, resid))
    sst = float(np.dot(y - y_bar, y - y_bar))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    r2 = min(1.0, max(0.0, r2))
    df = n - 2
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df
    s2 = sse / df
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + x_bar * x_bar / sxx))
    return intercept, slope, (se_intercept, se_slope), sse, r2, adj_r2, df


def _t_and_p(estimates, std_errors, df):
    ts, ps = [], []
    for est, se in zip(estimates, std_errors):
        if df < 1 or se == 0.0:
            ts.append(None)
            ps.append(None)
        else:
            t = est / se
            ts.append(t)
            ps.append(two_sided_p_value(t, df))
    return tuple(ts), tuple(ps)


def _points_to_arrays(points: Sequence[AggregatedPoint]):
    points = list(points)
    p = np.array([pt.competition for pt in points], dtype=float)
    w = np.array([pt.power for pt in points], dtype=float)
    return p, w


def fit_linear(points: Sequence[AggregatedPoint]) -> FitReport:
    """Fit W = a + b*p by ordinary least squares."""
    p, w = _points_to_arrays(points)
    a, b, ses, sse, r2, adj, df = _ols(p, w)
    ts, ps = _t_and_p((a, b), ses, df)
    return FitReport(
        profile=LinearProfile(a=a, b=b),
        std_errors=ses,
        t_statistics=ts,
        p_values=ps,
        r_squared=r2,
        adj_r_squared=adj,
        sse=sse,
        n_points=p.size,
    )


def fit_nroot(points: Sequence[AggregatedPoint], n_grid=DEFAULT_N_GRID) -> FitReport:
    """Fit W = c + d*p**(1/n), choosing n from a grid by minimum SSE.

    For each candidate n the substitution x = p**(1/n) turns the problem into
    simple OLS, so each candidate fit is exact; the grid scan replaces a
    nonlinear search over n.  The winning n is stored in the profile.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise InputError("n_grid must be non-empty")
    for n in n_grid:
        if n < 2:
            raise InputError(f"every n in the grid must be >= 2, got {n}")
    p, w = _points_to_arrays(points)
    best = None
    for n in n_grid:
        x = p ** (1.0 / n)
        c, d, ses, sse, r2, adj, df = _ols(x, w)
        if best is None or sse < best[0]:
            best = (sse, n, c, d, ses, r2, adj, df)
    sse, n, c, d, ses, r2, adj, df = best
    ts, ps = _t_and_p((c, d), ses, df)
    return FitReport(
        profile=NRootProfile(c=c, d=d, n=n),
        std_errors=ses,
        t_statistics=ts,
        p_values=ps,
        r_squared=r2,
        adj_r_squared=adj,
        sse=sse,
        n_points=p.size,
    )


def two_sided_p_value(t: float, df: int) -> float:
    """Two-sided Student-t tail probability via the regularized incomplete beta."""
    if df < 1:
        raise DegenerateStatisticsError(f"degrees of freedom must be >= 1, got {df}")
    if t == 0.0:
        return 1.0
    # imported here so that importing procwatt does not load scipy
    from scipy.special import betainc

    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def t_test_slope(report: FitReport):
    """Slope-significance test: returns (t, two-sided p) with df = n - 2."""
    df = report.n_points - 2
    se = report.std_errors[1]
    if df < 1:
        raise DegenerateStatisticsError(f"no degrees of freedom (n={report.n_points})")
    if se == 0.0:
        raise DegenerateStatisticsError("zero standard error (perfect fit)")
    t = _slope_estimate(report) / se
    return t, two_sided_p_value(t, df)


def _slope_estimate(report: FitReport) -> float:
    prof = report.profile
    return prof.b if isinstance(prof, LinearProfile) else prof.d


@dataclass(frozen=True)
class ModelSelection:
    """Outcome of comparing the two fits on the same points.

    margin = nroot.adj_r_squared - linear.adj_r_squared, so a positive margin
    favors the n-root model.  chosen is "mixed" when |margin| is inside the
    tie tolerance, reflecting that the two fits are statistically too close
    to call.
    """

    chosen: str
    linear_report: FitReport
    nroot_report: FitReport
    margin: float


def select_model(
    linear: FitReport,
    nroot: FitReport,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> ModelSelection:
    """Pick the profile family with the higher adjusted R-squared.

    Both reports must have been computed on the same points; the observable
    proxy is the point count, which is required to match.
    """
    if not isinstance(linear.profile, LinearProfile):
        raise InputError("first report must be a linear fit")
    if not isinstance(nroot.profile, NRootProfile):
        raise InputError("second report must be an n-root fit")
    if linear.n_points != nroot.n_points:
        raise MismatchError(
            f"reports cover different point sets ({linear.n_points} vs {nroot.n_points} points)"
        )
    margin = nroot.adj_r_squared - linear.adj_r_squared
    if abs(margin) <= tie_tolerance:
        chosen = MIXED
    elif margin > 0:
        chosen = NROOT
    else:
        chosen = LINEAR
    return ModelSelection(
        chosen=chosen, linear_report=linear, nroot_report=nroot, margin=margin
    )


def fit_report_to_dict(report: FitReport) -> dict:
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


def selection_to_dict(selection: ModelSelection) -> dict:
    return {
        "chosen": selection.chosen,
        "linear_report": fit_report_to_dict(selection.linear_report),
        "nroot_report": fit_report_to_dict(selection.nroot_report),
        "margin": selection.margin,
    }
