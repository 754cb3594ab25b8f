"""procwatt's benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                      # every workload, untraced

Load is a closed loop with one client: the next op starts when the previous
one has finished and been checked.  The clock stops while an op's output is
checked, so the timed phase is the sum of op latencies.  The first round of
ops is a warm-up: checked and digested, but left out of the timings.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see perfbench/README.md).  Metric names and
units come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from statistics import mean, median

import envinfo
from tracing import NullTracer, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("campaign", "rawfit", "placement", "cli")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120.0
TAIL_BEYOND = 10

MODULES = ("simulate", "traceio", "fitting", "profiles", "analysis", "placement", "cli")
SPAN_NAMES = (
    "simulate.generate_trace",
    "traceio.trace_to_string",
    "traceio.read_trace",
    "fitting.aggregate",
    "fitting.points_from_samples",
    "fitting.fit_linear",
    "fitting.fit_nroot",
    "fitting.select_model",
    "profiles.integrate_energy",
    "analysis.find_crossovers",
    "analysis.best_machine",
    "placement.place_exhaustive",
    "placement.place_greedy",
)
CLI_CALLS = ("simulate", "fit", "fit_raw", "crossover", "place", "energy")
COUNTS = ("simulate.samples", "traceio.csv_bytes", "fitting.points", "placement.candidates")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def import_workloads():
    """Put this checkout's src/ first on sys.path and import procwatt from it."""
    if not os.path.isfile(os.path.join(SRC, "procwatt", "__init__.py")):
        raise BenchError(f"no procwatt sources under {SRC}")
    sys.path.insert(0, SRC)
    import procwatt
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(procwatt.__file__))) != SRC:
        raise BenchError(f"procwatt was imported from {procwatt.__file__}, not {SRC}")
    return workloads


# ---------------------------------------------------------------- set-up


def setup_probe(workload, seed, workdir):
    """Seconds from spawning a fresh interpreter until it has set up the workload."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe", workdir]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, stderr = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed ({proc.returncode}): {stderr[-500:]}")
    return elapsed


# ---------------------------------------------------------------- the loop


def measure(work, seconds, tracer, null):
    """Run ops in a closed loop until ``seconds`` of op time and whole rounds are done."""
    ops = []
    digest_docs = []
    busy = 0.0
    min_ops = max(work.digest_ops, work.warmup_ops + 2 * work.round)
    # The inputs built in set-up live for the whole run.  Freezing them keeps
    # the collector from rescanning them during ops, and collecting before
    # each op starts every op from the same collector state.
    gc.freeze()
    i = 0
    while i < min_ops or busy < seconds or i % work.round:
        warmup = i < work.warmup_ops
        # rounds alternate traced and untraced, so both see the same conditions
        traced = tracer is not None and not warmup and (i // work.round) % 2 == 1
        tr = tracer if traced else null
        if traced:
            tracer.op = i
        item = work.inputs[i % len(work.inputs)]
        gc.collect()
        start = time.perf_counter()
        try:
            out = work.op(item, tr)
            error = None
        except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        stats = {}
        if error is None:
            try:
                problems, stats = work.check(i, out)
            except Exception as exc:  # noqa: BLE001
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                error = "; ".join(problems)
        if i < work.digest_ops:
            digest_docs.append(work.payload(out) if out is not None else {"error": error})
        ops.append({"index": i, "seconds": elapsed, "warmup": warmup, "traced": traced,
                    "error": error, "stats": stats})
        if not warmup:
            busy += elapsed
        out = None  # release this op's outputs before the next op runs
        i += 1
    text = json.dumps(digest_docs, sort_keys=True, separators=(",", ":"))
    return ops, hashlib.sha256(text.encode()).hexdigest()


def tail(latencies_ms):
    """The tail latency, its percentile, the samples beyond it and the sample count.

    The tail is the latency at the highest percentile that has TAIL_BEYOND
    samples above it.  With fewer than 4*TAIL_BEYOND samples that point
    would fall below the upper quartile, or not exist, so only n//4 samples
    are required above it: the tail never drops below the upper quartile,
    and a single outlier does not set it.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond, n


def end_to_end(work, ops, setups):
    timed = [op for op in ops if not op["warmup"]]
    latencies = [1e3 * op["seconds"] for op in timed]
    failed = sum(op["error"] is not None for op in ops)
    rss_kb = getattr(work, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_ms, tail_pct, beyond, n = tail(latencies)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": len(timed) / sum(op["seconds"] for op in timed),
        "op_p50_ms": median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_op_ratio": (len(ops) - failed) / len(ops),
    }
    notes = {
        "op_tail_ms": f"p{tail_pct:.1f} of n={n} timed ops, {beyond} beyond",
        "ok_op_ratio": f"failed_op_ratio = {failed / len(ops):g} ({failed} of {len(ops)})",
        "setup_s": f"median of {len(setups)} fresh set-ups",
    }
    return metrics, notes, {"latencies_ms": latencies, "setup_samples_s": setups,
                            "tail_percentile": tail_pct, "tail_beyond": beyond, "tail_samples": n}


def per_layer(ops, tracer, import_metrics):
    traced = {op["index"]: op["seconds"] for op in ops if op["traced"]}
    untraced_ms = [1e3 * op["seconds"] for op in ops if not op["warmup"] and not op["traced"]]
    per_op = tracer.per_op(traced)
    metrics = {}
    self_ms = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.busy_ms"] = median(per_op[op]["busy"].get(name, 0.0) for op in traced)
        self_ms[name] = median(per_op[op]["self"].get(name, 0.0) for op in traced)
    for call in CLI_CALLS:
        walls = [per_op[op]["busy"][f"cli.{call}"] for op in traced if f"cli.{call}" in per_op[op]["busy"]]
        metrics[f"cli.{call}.wall_ms"] = median(walls) if walls else 0.0
    # a cli op is one process, so the cli layer's self time per op is its one span
    self_ms["cli"] = median(
        sum(ms for name, ms in per_op[op]["self"].items() if name.startswith("cli.")) for op in traced
    )
    counts = tracer.count_medians(set(traced))
    for name in COUNTS:
        metrics[name] = counts.get(name, 0.0)
    timed = [op for op in ops if not op["warmup"]]
    candidates = sum(op["stats"].get("candidates", 0) for op in timed)
    feasible = sum(op["stats"].get("feasible", 0) for op in timed)
    gaps = [op["stats"]["greedy_gap_pct"] for op in timed if "greedy_gap_pct" in op["stats"]]
    metrics["placement.feasible_candidate_ratio"] = feasible / candidates if candidates else 0.0
    metrics["placement.greedy_gap_pct"] = mean(gaps) if gaps else 0.0
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.errors.get(module, 0)
    metrics.update(import_metrics)

    op_p50 = median(1e3 * s for s in traced.values())
    uncovered = median(per_op[op]["uncovered"] for op in traced)
    metrics["op.traced_p50_ms"] = op_p50
    metrics["op.uncovered_ms"] = uncovered
    metrics["trace.overhead_ms"] = op_p50 - median(untraced_ms)
    metrics["trace.accounted_pct"] = 100.0 * (sum(self_ms.values()) + uncovered) / op_p50
    notes = {
        "trace.overhead_ms": f"traced op p50 minus untraced op p50 ({len(traced)} vs {len(untraced_ms)} ops)",
        "trace.accounted_pct": "sum of median self times plus median uncovered time, over traced p50",
    }
    return metrics, notes, {"self_ms": self_ms}


def import_profile(workloads, workdir):
    """cli.import.wall_ms from plain imports, import.* from ``-X importtime``."""
    work_env = workloads.child_env()
    code = "import procwatt.cli"
    walls, parsed = [], []
    for _ in range(IMPORT_PROBES):
        wall, (rc, _, stderr, _) = workloads.timed_child([sys.executable, "-c", code], workdir, work_env)
        if rc != 0:
            raise BenchError(f"import probe failed: {stderr.decode()[-500:]}")
        walls.append(1e3 * wall)
        rc, _, stderr, _ = workloads.run_child([sys.executable, "-X", "importtime", "-c", code], workdir, work_env)
        if rc != 0:
            raise BenchError(f"importtime probe failed: {stderr.decode()[-500:]}")
        parsed.append(envinfo.parse_importtime(stderr.decode()))
    metrics = {key: median(p[key] for p in parsed) for key in parsed[0]}
    metrics["cli.import.wall_ms"] = median(walls)
    return metrics


# ---------------------------------------------------------------- reporting


def select(metrics, declared, kind):
    """The declared metrics, in declared order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{kind} metrics not computed: {missing}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared}


def print_metrics(label, selected, notes):
    print(label)
    for name, entry in selected.items():
        note = f"   [{notes[name]}]" if name in notes else ""
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}{note}")


def run_one(args, spec):
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = import_workloads()
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(OUT_DIR, f"run-{args.workload}-{os.getpid()}")
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, os.path.join(run_dir, "main"))
        os.makedirs(run_dir, exist_ok=True)
        setups = []
        if not args.trace:
            setups = [
                setup_probe(args.workload, args.seed, os.path.join(run_dir, f"probe{k}"))
                for k in range(SETUP_PROBES)
            ]
        env = envinfo.environment(ROOT)
        tracer = Tracer() if args.trace else None
        origin = time.perf_counter()
        ops, digest = measure(work, seconds, tracer, NullTracer())
        failed = sum(op["error"] is not None for op in ops)
        if args.trace:
            import_metrics = import_profile(workloads, run_dir)
            metrics, notes, extra = per_layer(ops, tracer, import_metrics)
            selected = select(metrics, spec["per_layer"], "per_layer")
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.json")
            tracer.write(spans_path, origin)
            extra["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics, notes, extra = end_to_end(work, ops, setups)
            selected = select(metrics, spec["end_to_end"], "end_to_end")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": selected}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        **result, "notes": notes, "output_sha256": digest,
        "failures": [f"op {op['index']}: {op['error']}" for op in ops if op["error"]][:20],
        "environment": env, **extra,
    }
    report_path = os.path.join(OUT_DIR, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print_metrics(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops "
        f"({work.warmup_ops} warm-up), {failed} failed", selected, notes)
    if "self_ms" in extra:
        self_times = {name: round(ms, 3) for name, ms in extra["self_ms"].items() if ms}
        print(f"  median self ms per op: {self_times}, uncovered {metrics['op.uncovered_ms']:.3f}")
    for failure in report["failures"][:5]:
        print(f"  FAILED {failure}")
    print(f"  output sha256 {digest}")
    print(f"  environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']['version']} "
          f"blas_threads={env['blas']['effective_threads']} "
          f"thread_env={ {k: v for k, v in env['thread_env'].items() if v is not None} } "
          f"commit={env['git_commit']} src_lines={env['src_lines']}")
    print(f"  report {os.path.relpath(report_path, ROOT)}")
    return result


def run_all(args, spec):
    """Each workload in its own process, so set-up and memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            workloads = import_workloads()
            workloads.WORKLOADS[args.workload](args.seed, args.setup_probe)
            print("ready", flush=True)
            return 0
        spec = load_spec()
        result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
