"""Command-line front end: simulate, fit, crossover, place, energy.

A thin shell over the library.  Reports go to stdout as JSON by default;
``--out`` redirects them to a file (written to a temp file and renamed, so
failures never leave partial output).  ``--format csv`` swaps the stdout
report for plot-ready CSV, which ``--plot-csv`` also writes to a file.
``simulate``'s flags and ``--config`` keys are ProtocolConfig's fields.
The exit code is 0 on success, the ``exit_code`` of a ProcwattError, 2 for
an unreadable file or malformed JSON, and 1 for anything else (an internal
error).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import tempfile
from typing import Callable, Optional

import numpy as np

from . import analysis, fitting, placement, profiles, simulate, traceio
from .errors import ConfigError, InputError, InsufficientDataError, ProcwattError


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".procwatt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_report(args, json_doc: dict, csv_text: Callable[[], str]) -> None:
    """Write the CSV to --plot-csv if the command has it, then the JSON report
    to --out, or print JSON/CSV to stdout.  csv_text() builds the CSV; it is
    called only where the CSV is written."""
    if getattr(args, "plot_csv", None):
        _atomic_write(args.plot_csv, csv_text())
    text = json.dumps(json_doc, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    elif args.format == "csv":
        sys.stdout.write(csv_text())
    else:
        sys.stdout.write(text)


def _parse_columns(text: Optional[str]):
    if text is None:
        return None
    mapping = {}
    for part in text.split(","):
        if "=" not in part:
            raise InputError(
                f"--columns entries must look like canonical=actual, got {part!r}"
            )
        canonical, actual = part.split("=", 1)
        mapping[canonical.strip()] = actual.strip()
    return mapping


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_profile(path: str):
    return profiles.profile_from_dict(_load_json(path))


def _read_trace(args) -> traceio.TraceFile:
    return traceio.read_trace(args.trace, columns=_parse_columns(args.columns))


def cmd_fit(args) -> None:
    trace = _read_trace(args)
    if args.raw:
        points = fitting.points_from_samples(trace.samples)
    else:
        points = fitting.aggregate(trace.samples, bin_width=args.bin_width)
    linear = fitting.fit_linear(points)
    nroot = fitting.fit_nroot(points, n_grid=range(args.n_min, args.n_max + 1))
    selection = fitting.select_model(linear, nroot, tie_tolerance=args.tie_tolerance)

    def csv_text():
        evaluate = profiles.evaluate
        return "competition_pct,observed_w,fitted_linear_w,fitted_nroot_w\n" + "".join(
            f"{p!r},{w!r},{evaluate(linear.profile, p)!r},{evaluate(nroot.profile, p)!r}\n"
            for p, w in zip(points.competition.tolist(), points.power.tolist())
        )

    _emit_report(args, fitting.selection_to_dict(selection), csv_text)


def cmd_crossover(args) -> None:
    lin = _load_profile(args.linear_profile)
    root = _load_profile(args.nroot_profile)
    result = analysis.find_crossovers(lin, root, p_max=args.p_max, cells=args.cells)

    def csv_text():  # one row per scan cell: find_crossovers has bounded args.cells
        buf = io.StringIO()
        buf.write("competition_pct,linear_w,nroot_w,difference_w\n")
        for i in range(1, args.cells + 1):
            p = args.p_max * i / args.cells
            w_lin = profiles.evaluate(lin, p)
            w_rt = profiles.evaluate(root, p)
            buf.write(f"{p!r},{w_lin!r},{w_rt!r},{w_lin - w_rt!r}\n")
        return buf.getvalue()

    _emit_report(args, analysis.crossover_result_to_dict(result), csv_text)


def cmd_place(args) -> None:
    problem = placement.problem_from_dict(_load_json(args.problem))
    if args.strategy == "greedy":
        result = placement.place_greedy(problem)
    else:
        result = placement.place_exhaustive(
            problem, max_vnfs=args.max_vnfs, max_machines=args.max_machines
        )

    def csv_text():
        return "slice_id,power_w\n" + "".join(
            f"{slice_id},{watts!r}\n" for slice_id, watts in result.per_slice_power.items()
        )

    _emit_report(args, placement.result_to_dict(result), csv_text)
    if args.out:
        for slice_id, watts in result.per_slice_power.items():
            print(f"slice {slice_id}: {watts:.6f} W")
        print(f"total: {result.total_power:.6f} W")


def _config_from_args(args) -> simulate.ProtocolConfig:
    """The --config document, or else the flags, with --seed applied on top.

    Flags not given are None and leave the field at its dataclass default.
    """
    names = [field.name for field in dataclasses.fields(simulate.ProtocolConfig)]
    if args.config:
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - set(names)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    else:
        doc = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    try:
        config = simulate.ProtocolConfig(**doc)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> None:
    config = _config_from_args(args)
    truth = _load_profile(args.truth_profile)
    trace = simulate.generate_trace(config, truth)
    text = traceio.trace_to_string(trace)
    if args.out:
        _atomic_write(args.out, text)
        print(f"{len(trace.samples)} samples written to {args.out}")
    else:
        sys.stdout.write(text)
        print(f"{len(trace.samples)} samples", file=sys.stderr)


def cmd_energy(args) -> None:
    samples = _read_trace(args).samples
    joules = profiles.integrate_energy(np.column_stack((samples.t, samples.power)))
    duration = float(samples.t[-1] - samples.t[0])
    if duration == 0.0:
        raise InsufficientDataError(
            f"the trace spans zero duration (all {len(samples)} samples at "
            f"t = {samples.t[0].item()!r}), so its mean power is undefined"
        )
    mean_watts = joules / duration
    doc = {"energy_joules": joules, "mean_power_w": mean_watts}
    _emit_report(args, doc, lambda: f"energy_joules,mean_power_w\n{joules!r},{mean_watts!r}\n")
    if args.out:
        print(f"energy: {joules:.6f} J over {duration:.3f} s, mean {mean_watts:.6f} W")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the primary report/output to this path")
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="stdout format when --out is not given",
    )

    parser = argparse.ArgumentParser(
        prog="procwatt",
        description="Process power profiles under CPU competition: "
        "simulate, fit, analyze crossovers, place VNFs, integrate energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[common], help="fit linear and n-root profiles to a trace")
    p_fit.add_argument("trace", help="trace CSV path")
    p_fit.add_argument("--bin-width", type=float, default=fitting.DEFAULT_BIN_WIDTH)
    p_fit.add_argument("--n-min", type=int, default=2)
    p_fit.add_argument("--n-max", type=int, default=8)
    p_fit.add_argument("--tie-tolerance", type=float, default=fitting.DEFAULT_TIE_TOLERANCE)
    p_fit.add_argument("--raw", action="store_true", help="fit raw samples instead of binned points")
    p_fit.add_argument("--columns", help="column remap, e.g. timestamp_s=time,power_w=watts")
    p_fit.add_argument("--plot-csv", help="also write plot-ready CSV to this path")
    p_fit.set_defaults(handler=cmd_fit)

    p_cross = sub.add_parser(
        "crossover", parents=[common], help="analyze where a linear and an n-root profile cross"
    )
    p_cross.add_argument("linear_profile", help="linear profile JSON path")
    p_cross.add_argument("nroot_profile", help="n-root profile JSON path")
    p_cross.add_argument("--p-max", type=float, default=100.0)
    p_cross.add_argument("--cells", type=int, default=analysis.DEFAULT_SCAN_CELLS,
                         help=f"scan grid size, 1 to {analysis.MAX_SCAN_CELLS}")
    p_cross.add_argument("--plot-csv", help="also write plot-ready CSV to this path")
    p_cross.set_defaults(handler=cmd_crossover)

    p_place = sub.add_parser("place", parents=[common], help="solve a VNF placement problem")
    p_place.add_argument("problem", help="placement problem JSON path")
    p_place.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")
    p_place.add_argument("--max-vnfs", type=int, default=placement.MAX_EXHAUSTIVE_VNFS)
    p_place.add_argument("--max-machines", type=int, default=placement.MAX_EXHAUSTIVE_MACHINES)
    p_place.set_defaults(handler=cmd_place)

    p_sim = sub.add_parser("simulate", parents=[common], help="generate a synthetic trace")
    p_sim.add_argument("truth_profile", help="ground-truth profile JSON path")
    p_sim.add_argument("--config", help="protocol config JSON path (overrides the flags below)")
    # each flag's dest is a ProtocolConfig field; --seed also overrides --config's seed
    p_sim.add_argument("--q", dest="baseline_load_q", metavar="Q", type=float, default=5.0,
                       help="baseline process load, percent")
    p_sim.add_argument("--sigma", dest="noise_sigma", metavar="SIGMA", type=float,
                       help="noise standard deviation, watts")
    p_sim.add_argument("--cycles", type=int)
    p_sim.add_argument("--seed", type=int, help="random seed")
    p_sim.add_argument("--step", dest="step_pct", metavar="STEP", type=float)
    p_sim.add_argument("--dwell", dest="dwell_seconds", metavar="DWELL", type=float)
    p_sim.add_argument("--interval", dest="sample_interval_seconds", metavar="INTERVAL", type=float)
    p_sim.add_argument("--start", dest="start_pct", metavar="START", type=float)
    p_sim.set_defaults(handler=cmd_simulate)

    p_energy = sub.add_parser("energy", parents=[common], help="integrate a trace's energy")
    p_energy.add_argument("trace", help="trace CSV path")
    p_energy.add_argument("--columns", help="column remap, e.g. timestamp_s=time,power_w=watts")
    p_energy.set_defaults(handler=cmd_energy)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ProcwattError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (anything else is a bug: say so)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
