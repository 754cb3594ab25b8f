"""Least-squares fitting of power profiles to competition/power traces.

The pipeline mirrors the measurement methodology: raw samples are binned by
competition level, a robust central power estimate is taken per bin, and the
two candidate profiles are fitted by ordinary least squares.  The n-root fit
is made linear per candidate n by substituting x = p**(1/n) and scanning a
small grid of n values.  Slope significance uses the standard two-sided
Student-t test.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateDesignError,
    DegenerateStatisticsError,
    InputError,
    InsufficientDataError,
    MismatchError,
)
from .profiles import LinearProfile, NRootProfile, PowerProfile, _document, _number

DEFAULT_BIN_WIDTH = 5.0
DEFAULT_N_GRID = range(2, 9)
DEFAULT_TIE_TOLERANCE = 0.02

LINEAR = "linear"
NROOT = "nroot"
MIXED = "mixed"


@dataclass(frozen=True)
class TraceSample:
    """One telemetry reading (seconds, competition percent, watts), checked by
    TraceSamples._rules and held as the Python floats it converts to."""

    t: float
    competition: float
    power: float

    def __post_init__(self):
        columns, failure = TraceSamples._checked([[self.t], [self.competition], [self.power]])
        if failure is not None:
            raise InputError(failure[1])
        for name, column in zip(TraceSamples._fields, columns):
            object.__setattr__(self, name, column.item())


def _validated_sample(t, competition, power):
    """A TraceSample built from values already validated as columns."""
    sample = object.__new__(TraceSample)
    sample.__dict__.update(t=t, competition=competition, power=power)
    return sample


def _first_failure(checks):
    """The first row that fails one of ``checks``, (field, mask of the rows that
    pass, rule) triples in the order one row is checked, and the first check it
    fails; or None.
    """
    ok = functools.reduce(operator.and_, [mask for _, mask, _ in checks])
    if ok.all():
        return None
    row = int(np.argmin(ok))
    return row, next(check for check in checks if not check[1][row])


def _violation(check, value):
    """The message of a row that fails ``check`` with ``value``: "<field> <rule>, got <value>"."""
    field, _, rule = check
    return f"{field} {rule}, got {np.asarray(value).item()!r}"  # a Python number or str


def _frozen(columns):
    for col in columns:
        col.flags.writeable = False
    return tuple(columns)


def _as_column(name, values, dtype):
    """values as an array of dtype, or InputError naming the field.

    An integer field takes only values it holds exactly: 1.5 is refused, not
    truncated to 1.
    """
    try:
        with np.errstate(invalid="ignore"):
            column = np.array(values, dtype=dtype)
        if column.dtype.kind == "i":
            given = np.asarray(values)
            inexact = column != given
            if inexact.any():
                raise ValueError(f"{given[inexact][0].item()!r} is not an integer")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} does not convert to {np.dtype(dtype).name}: {exc}") from None
    return column


class _Columns(Sequence):
    """An immutable sequence of rows held as equal-length read-only columns.

    A subclass names its row type's fields in ``_fields``, their dtypes in
    ``_dtypes``, the row factory in ``_row`` and a row in ``_noun``.  Its
    ``_rules`` states the rows' contract as (field, mask of the rows that keep
    the rule, rule) triples, in the order one row is checked.  ``len`` is
    O(1), indexing and iteration yield rows, and it compares equal to an
    instance with the same columns or to a list or tuple of equal rows.
    """

    __slots__ = ("_columns",)
    _fields: Tuple[str, ...] = ()
    _dtypes: Tuple[type, ...] = ()

    def __init__(self, *columns):
        if len(columns) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the columns {', '.join(self._fields)}")
        columns, failure = self._checked(columns)
        if failure is not None:
            raise InputError(f"{self._noun} {failure[0]}: {failure[1]}")
        self._columns = _frozen(columns)

    @classmethod
    def _checked(cls, columns):
        """The columns as one-dimensional arrays of the fields' dtypes and of
        equal length, and the first row that breaks ``_rules`` with its message,
        or None."""
        columns = tuple(map(_as_column, cls._fields, columns, cls._dtypes))
        if any(col.ndim != 1 for col in columns) or len({col.size for col in columns}) > 1:
            raise InputError(
                f"{', '.join(cls._fields)} must be one-dimensional and of equal length, "
                f"got shapes {[col.shape for col in columns]}"
            )
        failure = _first_failure(cls._rules(*columns))
        if failure is None:
            return columns, None
        row, check = failure
        return columns, (row, _violation(check, columns[cls._fields.index(check[0])][row]))

    @classmethod
    def _of_checked(cls, columns):
        """An instance holding ``columns`` as they are, without a copy or a check:
        arrays of the fields' dtypes, of equal length, that keep ``_rules``."""
        self = object.__new__(cls)
        self._columns = _frozen(columns)
        return self

    @classmethod
    def of(cls, rows):
        """The columns of any iterable of rows; an instance is returned as is."""
        if isinstance(rows, cls):
            return rows
        rows = list(rows)
        return cls(*([getattr(row, name) for row in rows] for name in cls._fields))

    def __len__(self) -> int:
        return self._columns[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(col[index] for col in self._columns))
        return self._row(*(col[index].item() for col in self._columns))

    def __iter__(self):
        return map(self._row, *(col.tolist() for col in self._columns))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return all(map(np.array_equal, self._columns, other._columns))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} rows>)"


def _column(index, doc):
    return property(lambda self: self._columns[index], doc=doc)


class TraceSamples(_Columns):
    """An immutable, validated trace held as three float64 columns.

    ``t``, ``competition`` and ``power`` are read-only arrays of equal length;
    every row keeps ``_rules``, the sample contract (TraceSample and read_trace
    check it too).  The object is a sequence of TraceSample with O(1) ``len``;
    it compares equal to another TraceSamples with the same columns or to a
    list or tuple of equal samples.

    Build one from arrays with ``TraceSamples(t, competition, power)``, or
    from any iterable of samples with ``TraceSamples.of(samples)``.
    """

    __slots__ = ()
    _fields = ("t", "competition", "power")
    _dtypes = (np.float64,) * 3
    _row = staticmethod(_validated_sample)
    _noun = "sample"
    t = _column(0, "Timestamps in seconds.")
    competition = _column(1, "Competition in percent.")
    power = _column(2, "Power in watts.")

    @staticmethod
    def _rules(t, competition, power):
        return [
            ("t", np.isfinite(t), "must be finite"),
            ("competition", np.isfinite(competition), "must be finite"),
            ("power", np.isfinite(power), "must be finite"),
            ("competition", (competition >= 0.0) & (competition <= 100.0), "must lie in [0, 100]"),
            ("power", power >= 0.0, "must be >= 0"),
        ]


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


class AggregatedPoints(_Columns):
    """Fitting points held as read-only columns: the counterpart of TraceSamples.

    ``competition``, ``power`` and ``dispersion`` are float64, ``count`` is
    int64.  The object is a sequence of AggregatedPoint with O(1) ``len``,
    compared like TraceSamples; the fitters read ``competition`` and
    ``power`` directly.
    """

    __slots__ = ()
    _fields = ("competition", "power", "count", "dispersion")
    _dtypes = (np.float64, np.float64, np.int64, np.float64)
    _row = AggregatedPoint
    _noun = "point"
    competition = _column(0, "Competition in percent.")
    power = _column(1, "Power in watts.")
    count = _column(2, "Member samples per point.")
    dispersion = _column(3, "Population standard deviation of the member powers.")

    @staticmethod
    def _rules(competition, power, count, dispersion):
        return [
            ("competition", (competition >= 0.0) & (competition <= 100.0), "must lie in [0, 100]"),
            ("power", np.isfinite(power) & (power >= 0.0), "must be finite and >= 0"),
            ("count", count >= 1, "must be >= 1"),
            ("dispersion", np.isfinite(dispersion) & (dispersion >= 0.0), "must be finite and >= 0"),
        ]


def aggregate(samples: Iterable[TraceSample], bin_width: float = DEFAULT_BIN_WIDTH):
    """Bin samples by competition and summarize each bin.

    Samples land in bin floor(competition / bin_width), which never decreases
    as competition grows, so after a stable sort by competition each bin is
    one contiguous slice.  A bin's powers are sorted by value before reduction,
    so the output is identical for any permutation of the input.  Returns
    AggregatedPoints, one per bin, sorted by competition.
    """
    bin_width = _number("bin_width", bin_width, 0, open_lo=True)
    columns = TraceSamples.of(samples)
    if not len(columns):
        raise InsufficientDataError("no samples to aggregate")
    if not math.isfinite(float(columns.competition.max()) / bin_width):
        raise InputError(f"bin_width must keep max(competition) / bin_width finite, got {bin_width!r}")
    order = np.argsort(columns.competition, kind="stable")
    comps, powers = columns.competition[order], columns.power[order]
    keys = np.floor(comps / bin_width)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]).tolist()
    bins = [
        (np.mean(comps[lo:hi]), np.median(member := np.sort(powers[lo:hi])), hi - lo, np.std(member))
        for lo, hi in zip(starts, starts[1:] + [keys.size])
    ]
    return AggregatedPoints(*zip(*bins))


def points_from_samples(samples: Iterable[TraceSample]) -> AggregatedPoints:
    """One unit-weight point per raw sample, for fitting without binning.

    Points are ordered by (competition, power, t).  t breaks ties only between
    rows that differ just in the sign of a zero; rows otherwise equal in value
    are equal bit for bit, so without a -0.0 they are sorted by value alone.
    """
    columns = TraceSamples.of(samples)
    if not len(columns):
        raise InsufficientDataError("no samples")
    comps, powers = columns.competition, columns.power
    if np.signbit(comps).any() or np.signbit(powers).any():
        order = np.lexsort((columns.t, powers, comps))
    else:
        order = np.argsort(powers)
        order = order[np.argsort(comps[order], kind="stable")]
    ones, zeros = np.ones(order.size, dtype=np.int64), np.zeros(order.size)
    # unchecked: the sample rules imply the point rules
    return AggregatedPoints._of_checked((comps[order], powers[order], ones, zeros))


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


def _ols(xs: Sequence[np.ndarray], y: np.ndarray):
    """Closed-form simple regression y = intercept + slope*x for each 1-D column x in xs.

    Each column is fitted in N-sized temporaries.  Returns the index of the
    column with the least SSE (the first on ties) and its fit.  Every sum is a
    pairwise np.add.reduce over explicitly rounded products, with no BLAS
    call, so the result does not depend on the thread count.
    """
    n = y.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    x_bars = [np.add.reduce(x) / n for x in xs]
    y_bar = np.add.reduce(y) / n
    dy = y - y_bar
    sxxs = [np.add.reduce(np.square(x - x_bar)) for x, x_bar in zip(xs, x_bars)]
    # zero when all values in a column are equal, or so close that dx*dx underflows
    if not all(sxx > 0.0 for sxx in sxxs):
        raise DegenerateDesignError("all competition values are equal (or too close to fit)")
    slopes = [np.add.reduce((x - x_bar) * dy) / sxx for x, x_bar, sxx in zip(xs, x_bars, sxxs)]
    intercepts = [y_bar - slope * x_bar for slope, x_bar in zip(slopes, x_bars)]
    sses = [np.add.reduce(np.square(y - (b * x + a))) for x, b, a in zip(xs, slopes, intercepts)]
    row = int(np.argmin(sses))
    x_bar, sxx, sse = float(x_bars[row]), float(sxxs[row]), float(sses[row])
    sst = float(np.add.reduce(dy * dy))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    r2 = min(1.0, max(0.0, r2))
    df = n - 2
    s2 = sse / df
    ses = (math.sqrt(s2 * (1.0 / n + x_bar * x_bar / sxx)), math.sqrt(s2 / sxx))
    estimates = (float(intercepts[row]), float(slopes[row]))
    ts = tuple(est / se if se else None for est, se in zip(estimates, ses))
    ps = tuple(None if t is None else two_sided_p_value(t, df) for t in ts)
    report = dict(
        std_errors=ses, t_statistics=ts, p_values=ps, r_squared=r2,
        adj_r_squared=1.0 - (1.0 - r2) * (n - 1) / df, sse=sse, n_points=n,
    )
    return row, estimates, report


def fit_linear(points: Iterable[AggregatedPoint]) -> FitReport:
    """Fit W = a + b*p by ordinary least squares."""
    points = AggregatedPoints.of(points)
    _, (a, b), report = _ols([points.competition], points.power)
    return FitReport(profile=LinearProfile(a=a, b=b), **report)


def fit_nroot(points: Iterable[AggregatedPoint], n_grid=DEFAULT_N_GRID) -> FitReport:
    """Fit W = c + d*p**(1/n), choosing n from a grid by minimum SSE.

    For each candidate n the substitution x = p**(1/n) turns the problem into
    simple OLS, so each candidate fit is exact; the grid scan replaces a
    nonlinear search over n.  The winning n is stored in the profile.
    """
    n_grid = [_number(f"n_grid[{i}]", n, 2, integer=True) for i, n in enumerate(n_grid)]
    if not n_grid:
        raise InputError("n_grid must be non-empty")
    points = AggregatedPoints.of(points)
    # one root per run of bitwise-equal competitions ((-0.0) ** 0.5 is -0.0), repeated over the run
    bits = points.competition.view(np.uint64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    levels, runs = points.competition[starts], np.diff(np.r_[starts, bits.size])
    columns = [np.repeat(levels ** (1.0 / n), runs) for n in n_grid]
    row, (c, d), report = _ols(columns, points.power)
    return FitReport(profile=NRootProfile(c=c, d=d, n=n_grid[row]), **report)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)).

    For large a the two log-gammas nearly cancel, so an asymptotic series is
    used there; its truncation error is below 2e-17 for a >= 20.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    series = -1 / 8 + r * (1 / 192 + r * (-1 / 640 + r * (17 / 14336 - r * 31 / 18432)))
    return 0.5 * math.log(a) + series / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method.

    Numerical Recipes, 3rd ed., section 6.4; converges quickly for
    x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 1_000_000):
        for step in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + step * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + step / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
        if not abs(d * c - 1.0) > 2.220446049250313e-16:  # converged, or NaN
            break
    return h


def _beta_half(a: float, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, 1/2).

    y = 1 - x is passed separately so that a caller can keep its precision
    when x is close to 1.
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    # x**a * y**(1/2) / B(a, 1/2), with log Gamma(1/2) = log(pi) / 2
    front = math.exp(_log_gamma_ratio(a) - 0.5 * math.log(math.pi) + a * log_x + 0.5 * log_y)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_fraction(0.5, a, y) / 0.5


def two_sided_p_value(t: float, df: int) -> float:
    """Two-sided Student-t tail probability, I_x(df/2, 1/2) with x = df/(df + t^2)."""
    if df < 1:
        raise DegenerateStatisticsError(f"degrees of freedom must be >= 1, got {df}")
    tt = t * t
    return _beta_half(df / 2.0, df / (df + tt), tt / (df + tt))


def t_test_slope(report: FitReport):
    """Slope-significance test: the report's (t, two-sided p) for the slope,
    with df = n - 2."""
    if report.n_points < 3:
        raise DegenerateStatisticsError(f"no degrees of freedom (n={report.n_points})")
    if report.std_errors[1] == 0.0:
        raise DegenerateStatisticsError("zero standard error (perfect fit)")
    return report.t_statistics[1], report.p_values[1]


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
    proxy is the point count, which is required to match.  tie_tolerance
    must be finite and >= 0.
    """
    tie_tolerance = _number("tie_tolerance", tie_tolerance, 0)
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
    return _document(report)


def selection_to_dict(selection: ModelSelection) -> dict:
    return _document(selection)
