"""The batched OLS kernel and the Student-t p-value.

The kernel sums with np.add.reduce only, so a fit must not depend on the
BLAS thread count; the p-value is a continued fraction, so fitting must not
load scipy.  scipy, where installed, is the reference for the incomplete beta.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from procwatt import (
    AggregatedPoint,
    NRootProfile,
    ProtocolConfig,
    fit_nroot,
    fit_report_to_dict,
    generate_trace,
    two_sided_p_value,
    write_trace,
)
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
    """Batching the n grid changes no bit of the chosen fit."""
    rng = np.random.default_rng(5)
    levels = np.repeat(np.arange(0.0, 100.0, 5.0), 30)
    power = 7.0 + 1.5 * levels ** (1.0 / 3) + rng.normal(0.0, 0.4, levels.size)
    points = [AggregatedPoint(p, w, 1, 0.0) for p, w in zip(levels.tolist(), power.tolist())]
    singles = [fit_nroot(points, n_grid=[n]) for n in range(2, 9)]
    best = min(singles, key=lambda report: report.sse)  # the first minimum
    assert fit_report_to_dict(fit_nroot(points)) == fit_report_to_dict(best)


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

