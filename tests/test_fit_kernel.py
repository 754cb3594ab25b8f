"""The per-candidate OLS kernel and the Student-t p-value.

The kernel fits each candidate column in N-sized temporaries and sums with
np.add.reduce only, so a fit must not depend on the BLAS thread count, and
it must give the same bytes as the 2-D kernel it replaced, kept here as a
reference.  The p-value is a continued fraction, so fitting must not load
scipy.  scipy, where installed, is the reference for the incomplete beta.
"""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procwatt import (
    AggregatedPoint,
    AggregatedPoints,
    FitReport,
    LinearProfile,
    NRootProfile,
    ProtocolConfig,
    fit_linear,
    fit_nroot,
    fit_report_to_dict,
    generate_trace,
    points_from_samples,
    read_trace,
    two_sided_p_value,
    write_trace,
)
from procwatt import fitting
from procwatt.errors import DegenerateDesignError, InsufficientDataError, ProcwattError
from procwatt.fitting import _beta_half

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def default_trace(tmp_path_factory):
    """The default protocol (11,520 samples), noisy, with an n-root truth."""
    path = tmp_path_factory.mktemp("kernel") / "trace.csv"
    config = ProtocolConfig(baseline_load_q=5.0, noise_sigma=0.3, seed=1)
    write_trace(generate_trace(config, NRootProfile(7.0, 1.5, 3)), path)
    return path


def run_procwatt(args, **env):
    result = subprocess.run(
        [sys.executable, "-m", "procwatt", *args], env={"PYTHONPATH": SRC, **env},
        capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("mode", [["--raw"], ["--raw", "--format", "csv"], []])
def test_fit_report_does_not_depend_on_blas_threads(default_trace, mode):
    one, two = (
        run_procwatt(["fit", str(default_trace), *mode], OPENBLAS_NUM_THREADS=threads)
        for threads in ("1", "2")
    )
    assert one == two
    if mode == ["--raw"]:
        assert json.loads(one)["linear_report"]["n_points"] == 11520


def test_fitting_does_not_load_scipy(default_trace, tmp_path):
    code = (
        "import sys\n"
        "from procwatt.cli import main\n"
        "trace, out = sys.argv[1:]\n"
        "assert main(['fit', trace, '--out', out]) == 0\n"
        "assert main(['fit', '--raw', trace, '--out', out]) == 0\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(default_trace), str(tmp_path / "report.json")],
        env={"PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_grid_fit_is_the_best_single_n_fit():
    """Fitting the whole n grid in one call changes no bit of the chosen fit."""
    rng = np.random.default_rng(5)
    levels = np.repeat(np.arange(0.0, 100.0, 5.0), 30)
    power = 7.0 + 1.5 * levels ** (1.0 / 3) + rng.normal(0.0, 0.4, levels.size)
    points = [AggregatedPoint(p, w, 1, 0.0) for p, w in zip(levels.tolist(), power.tolist())]
    singles = [fit_nroot(points, n_grid=[n]) for n in range(2, 9)]
    best = min(singles, key=lambda report: report.sse)  # the first minimum
    assert fit_report_to_dict(fit_nroot(points)) == fit_report_to_dict(best)


def batched_ols(x, y):
    """The 2-D kernel: every row of x fitted at once in (rows, N) arrays."""
    n = y.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    x_bars = np.add.reduce(x, axis=1) / n
    y_bar = np.add.reduce(y) / n
    dx = x - x_bars[:, None]
    dy = y - y_bar
    work = dx * dx
    sxxs = np.add.reduce(work, axis=1)
    if not (sxxs > 0.0).all():
        raise DegenerateDesignError("all competition values are equal (or too close to fit)")
    slopes = np.add.reduce(np.multiply(dx, dy, out=work), axis=1) / sxxs
    intercepts = y_bar - slopes * x_bars
    np.multiply(slopes[:, None], x, out=work)
    work += intercepts[:, None]
    resid = np.subtract(y, work, out=work)
    sses = np.add.reduce(np.multiply(resid, resid, out=work), axis=1)
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


def batched_fit(points, n_grid=None):
    """fit_linear (n_grid None) or fit_nroot by the 2-D kernel, powers taken on every point."""
    if n_grid is None:
        _, (a, b), report = batched_ols(points.competition[None, :], points.power)
        return FitReport(profile=LinearProfile(a=a, b=b), **report)
    design = np.array([points.competition ** (1.0 / n) for n in n_grid])
    row, (c, d), report = batched_ols(design, points.power)
    return FitReport(profile=NRootProfile(c=c, d=d, n=n_grid[row]), **report)


def outcome(fit, *args):
    """The report's JSON text, or the error's type and message.

    Powers near 1e200 overflow the squares; the two kernels warn at different
    steps, so warnings are silenced and only the values are compared.
    """
    try:
        with np.errstate(all="ignore"):
            return json.dumps(fit_report_to_dict(fit(*args)))
    except ProcwattError as exc:
        return type(exc), str(exc)


# tiny and subnormal levels make some or all candidate columns degenerate
LEVEL_POOL = [0.0, -0.0, 5e-324, 1e-323, 1e-300, 2.2250738585072014e-308, 1e-05, 1.0 / 3.0,
              5.0, 95.0, 100.0]


@st.composite
def fit_points(draw):
    """Points drawn from a small pool of competition levels (both signs of zero
    when the draw says so), sorted by value or not, with repeated powers, and
    an n grid of one or several, possibly repeated, n."""
    size = draw(st.sampled_from([3, 4, 7, 20, 300, 2049]))
    pool = draw(st.lists(st.one_of(st.sampled_from(LEVEL_POOL), st.floats(0.0, 100.0)),
                         min_size=1, max_size=8))
    pool += [0.0, -0.0] if draw(st.booleans()) else []
    powers = draw(st.lists(st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 1e200])),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = rng.choice(np.array(pool), size=size)
    if draw(st.booleans()):
        comps = np.sort(comps, kind="stable")  # keeps -0.0 and 0.0 apart only by bits
    points = AggregatedPoints(comps, rng.choice(np.array(powers), size=size),
                              np.ones(size, dtype=np.int64), np.zeros(size))
    n_grid = draw(st.one_of(st.lists(st.integers(2, 12), min_size=1, max_size=9),
                            st.just(list(range(2, 9)))))
    return points, n_grid


def kernel_columns(points, n_grid):
    """fit_nroot's outcome and the candidate columns it hands the kernel."""
    with mock.patch.object(fitting, "_ols", wraps=fitting._ols) as kernel:
        result = outcome(fit_nroot, points, n_grid)
    return result, [column.tobytes() for column in kernel.call_args.args[0]]


@settings(max_examples=300, deadline=None)
@given(fit_points())
def test_per_candidate_kernel_matches_the_batched_kernel_byte_for_byte(case):
    points, n_grid = case
    result, columns = kernel_columns(points, n_grid)
    assert columns == [(points.competition ** (1.0 / n)).tobytes() for n in n_grid]
    assert result == outcome(batched_fit, points, n_grid)
    assert outcome(fit_linear, points) == outcome(batched_fit, points)


def test_zero_signs_keep_their_own_roots():
    # numpy takes x ** 0.5 as sqrt(x), so (-0.0) ** 0.5 is -0.0: a run of equal
    # competitions must not lend a -0.0 point its neighbour's sign
    comps = np.array([-0.0, 0.0, 0.0, -0.0, 50.0, 100.0, 0.0])
    points = AggregatedPoints(comps, np.arange(7.0), np.ones(7, dtype=np.int64), np.zeros(7))
    result, columns = kernel_columns(points, [2, 3])
    assert columns == [(comps ** 0.5).tobytes(), (comps ** (1.0 / 3)).tobytes()]
    signs = np.signbit(np.frombuffer(columns[0])).tolist()
    assert signs == [True, False, False, True, False, False, False]
    assert result == outcome(batched_fit, points, [2, 3])


def test_nroot_fit_memory_stays_below_16_columns(default_trace):
    """tracemalloc's peak for a default raw trace: the 2-D kernel held a 7 x N
    design and two more 7 x N work arrays, 23 columns of N floats."""
    points = points_from_samples(read_trace(default_trace).samples)
    fit_nroot(points)  # a first call may allocate caches
    tracemalloc.start()
    try:
        fit_nroot(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 11520
    assert peak < 16 * 8 * len(points)


DFS = [1, 2, 3, 5, 10, 30, 100, 1e3, 11518, 115198]
TS = [10.0**k for k in range(-8, 5)]


@pytest.mark.parametrize("df", DFS)
def test_incomplete_beta_matches_scipy(df):
    special = pytest.importorskip("scipy.special")
    for t in TS:
        x = df / (df + t * t)
        want = float(special.betainc(df / 2.0, 0.5, x))
        assert _beta_half(df / 2.0, x, 1.0 - x) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [1e-12, 1e-8, 1e-4, 0.3, 1.0, 3.0, 50.0, 1e4, 1e8])
def test_p_value_matches_closed_forms(t):
    # df = 1 (Cauchy) and df = 2, written without cancellation at either end
    assert two_sided_p_value(t, 1) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-13)
    root = math.sqrt(2.0 + t * t)
    assert two_sided_p_value(t, 2) == pytest.approx(2.0 / ((root + t) * root), rel=1e-13)


def test_p_value_limits():
    assert two_sided_p_value(0.0, 5) == 1.0
    assert two_sided_p_value(1e-200, 5) == 1.0  # t*t underflows
    assert two_sided_p_value(1e200, 5) == 0.0  # t*t overflows
    assert two_sided_p_value(-3.0, 115198) == two_sided_p_value(3.0, 115198)

