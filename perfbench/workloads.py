"""The benchmark's workloads: inputs built from a seed, one op, and its checks.

Every call into procwatt goes through ``tr.call("<module>.<function>", ...)``
so a traced run records a span around it.  The calls here are the only place
the benchmark depends on procwatt's Python API; the CLI workload uses only
the command line and the documented file formats.

Checks run outside the timed op and compare against ``oracles``, which does
not call procwatt.  ``oracles`` (and so numpy) is imported inside the checks
so that a set-up probe pays only for ``import procwatt`` and input building.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time

from procwatt import analysis, fitting, placement, profiles, simulate, traceio

LIN_TRUTH = {"kind": "linear", "a": 9.75, "b": 0.055}
ROOT_TRUTH = {"kind": "nroot", "c": 7.0, "d": 1.5, "n": 3}
Q = 5.0
SIGMA = 0.3
P_MAX = 100.0
# 80 cycles x 20 levels x 72 samples per level = 115,200 samples per machine
CAMPAIGN_CYCLES = 80
BEST_MACHINE_LEVELS = tuple(5.0 * k for k in range(20))
CHILD_TIMEOUT_S = 60.0


def sub_seed(seed, *parts):
    """A 63-bit seed derived from the workload seed and a position."""
    text = ":".join(str(x) for x in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


class Campaign:
    """Two machines through the whole gradual-increase pipeline, then compared."""

    name = "campaign"
    warmup_ops = 1
    digest_ops = 2
    round = 1

    def __init__(self, seed, workdir):
        self.truths = (profiles.profile_from_dict(LIN_TRUTH), profiles.profile_from_dict(ROOT_TRUTH))
        self.inputs = [
            tuple(
                simulate.ProtocolConfig(
                    baseline_load_q=Q, noise_sigma=SIGMA, seed=sub_seed(seed, i, m), cycles=CAMPAIGN_CYCLES
                )
                for m in range(2)
            )
            for i in range(16)
        ]

    def op(self, configs, tr):
        machines = []
        for config, truth in zip(configs, self.truths):
            trace = tr.call("simulate.generate_trace", simulate.generate_trace, config, truth)
            text = tr.call("traceio.trace_to_string", traceio.trace_to_string, trace)
            parsed = tr.call("traceio.read_trace", traceio.read_trace, io.StringIO(text))
            points = tr.call("fitting.aggregate", fitting.aggregate, parsed.samples)
            linear = tr.call("fitting.fit_linear", fitting.fit_linear, points)
            nroot = tr.call("fitting.fit_nroot", fitting.fit_nroot, points)
            selection = tr.call("fitting.select_model", fitting.select_model, linear, nroot)
            pairs = [(s.t, s.power) for s in parsed.samples]
            energy = tr.call("profiles.integrate_energy", profiles.integrate_energy, pairs)
            tr.count("simulate.samples", len(trace.samples))
            tr.count("traceio.csv_bytes", len(text))  # the CSV is ASCII
            tr.count("fitting.points", len(points))
            machines.append(
                {"trace": trace, "parsed": parsed, "points": points, "selection": selection,
                 "pairs": pairs, "energy": energy}
            )
        lin = machines[0]["selection"].linear_report.profile
        root = machines[1]["selection"].nroot_report.profile
        crossing = tr.call("analysis.find_crossovers", analysis.find_crossovers, lin, root, P_MAX)
        fitted = {"lin": lin, "root": root}
        best = [
            tr.call("analysis.best_machine", analysis.best_machine, fitted, {"lin": p, "root": p})
            for p in BEST_MACHINE_LEVELS
        ]
        return {"machines": machines, "crossing": crossing, "best": best}

    def payload(self, out):
        return {
            "selections": [fitting.selection_to_dict(m["selection"]) for m in out["machines"]],
            "energy_j": [m["energy"] for m in out["machines"]],
            "crossover": analysis.crossover_result_to_dict(out["crossing"]),
            "best_machine": out["best"],
        }

    def check(self, i, out):
        import oracles

        problems = []
        doc = self.payload(out)
        for m, selection in zip(out["machines"], doc["selections"]):
            if m["parsed"].samples != m["trace"].samples:
                problems.append("read_trace(trace_to_string(t)) differs from t")
            p, w = oracles.arrays([(pt.competition, pt.power) for pt in m["points"]])
            problems += oracles.check_fits(selection, oracles.fit_reference(p, w))
            t, power = oracles.arrays(m["pairs"])
            problems += oracles.check_energy(m["energy"], t, power)
        lin = doc["selections"][0]["linear_report"]["profile"]
        root = doc["selections"][1]["nroot_report"]["profile"]
        problems += oracles.check_crossovers(lin, root, doc["crossover"]["crossovers"], P_MAX)
        for p, chosen in zip(BEST_MACHINE_LEVELS, out["best"]):
            problems += oracles.check_best_machine({"lin": lin, "root": root}, {"lin": p, "root": p}, chosen)
        return problems, {}


class RawFit:
    """`procwatt fit --raw` in process: every sample is a fitting point."""

    name = "rawfit"
    warmup_ops = 1
    digest_ops = 8
    round = 1

    def __init__(self, seed, workdir):
        truths = (profiles.profile_from_dict(LIN_TRUTH), profiles.profile_from_dict(ROOT_TRUTH))
        self.inputs = [
            simulate.generate_trace(
                simulate.ProtocolConfig(baseline_load_q=Q, noise_sigma=SIGMA, seed=sub_seed(seed, j)),
                truths[(j // 2) % 2],
            )
            for j in range(8)
        ]
        self._references = {}

    def op(self, trace, tr):
        points = tr.call("fitting.points_from_samples", fitting.points_from_samples, trace.samples)
        linear = tr.call("fitting.fit_linear", fitting.fit_linear, points)
        nroot = tr.call("fitting.fit_nroot", fitting.fit_nroot, points)
        selection = tr.call("fitting.select_model", fitting.select_model, linear, nroot)
        tr.count("fitting.points", len(points))
        return selection

    def payload(self, out):
        return fitting.selection_to_dict(out)

    def check(self, i, out):
        import oracles

        j = i % len(self.inputs)
        if j not in self._references:
            samples = self.inputs[j].samples
            p, w = oracles.arrays([(s.competition, s.power) for s in samples])
            self._references[j] = oracles.fit_reference(p, w)
        return oracles.check_fits(self.payload(out), self._references[j]), {}


def placement_doc(rng, index, vnfs=8, machines=4):
    """A seeded placement instance in the documented JSON problem format.

    Indices 2, 3, 6, 7, ... have tight capacity (high base load, large
    shares), the others loose; every third instance has one machine whose
    profile decreases with competition (b < 0 or d < 0).  Families alternate
    across machines.  Both patterns mix odd and even indices, so traced and
    untraced ops see the same mix.
    """
    tight = (index // 2) % 2 == 1
    non_monotone = rng.randrange(machines) if index % 3 == 2 else None
    docs = []
    for k in range(machines):
        if (k + index) % 2 == 0:
            profile = {"kind": "linear", "a": rng.uniform(8, 12), "b": rng.uniform(0.02, 0.08)}
            if k == non_monotone:
                profile["b"] = -rng.uniform(0.005, 0.03)
        else:
            profile = {"kind": "nroot", "c": rng.uniform(5, 9), "d": rng.uniform(0.8, 2.0),
                       "n": rng.randint(2, 6)}
            if k == non_monotone:
                profile["d"] = -rng.uniform(0.2, 1.0)
        base = rng.uniform(20, 50) if tight else rng.uniform(0, 30)
        docs.append({"id": f"m{k}", "profile": profile, "base_competition": base})
    lo, hi = (8, 20) if tight else (2, 8)
    slices = ["s0", "s1", "s2"]
    return {
        "machines": docs,
        "vnfs": [
            {"id": f"v{j}", "cpu_share": rng.uniform(lo, hi), "slice_id": rng.choice(slices)}
            for j in range(vnfs)
        ],
        "slices": slices,
    }


class Placement:
    """Exhaustive and greedy placement of 8 VNFs on 4 machines."""

    name = "placement"
    warmup_ops = 1
    digest_ops = 2
    round = 1

    def __init__(self, seed, workdir):
        self.docs = [placement_doc(random.Random(sub_seed(seed, i)), i) for i in range(16)]
        self.inputs = [placement.problem_from_dict(doc) for doc in self.docs]

    def op(self, problem, tr):
        exhaustive = tr.call("placement.place_exhaustive", placement.place_exhaustive, problem)
        original = getattr(placement, "best_machine", None)
        if tr.enabled and original is not None:
            # span the greedy solver's calls into analysis.best_machine
            placement.best_machine = lambda *a: tr.call("analysis.best_machine", original, *a)
        try:
            greedy = tr.call("placement.place_greedy", placement.place_greedy, problem)
        finally:
            if tr.enabled and original is not None:
                placement.best_machine = original
        tr.count("placement.candidates", len(problem.machines) ** len(problem.vnfs))
        return exhaustive, greedy

    def payload(self, out):
        return [placement.result_to_dict(result) for result in out]

    def check(self, i, out):
        import oracles

        oracle = oracles.PlacementOracle(self.docs[i % len(self.docs)])
        exhaustive, greedy = self.payload(out)
        stats = {"feasible": int(oracle.feasible.sum()), "candidates": oracle.candidates}
        if exhaustive["feasible"] and greedy["feasible"]:
            best = exhaustive["total_power"]
            stats["greedy_gap_pct"] = 100.0 * (greedy["total_power"] - best) / abs(best)
        return oracle.check(exhaustive, greedy), stats


class CliFailure(Exception):
    pass


class Cli:
    """Fresh `python -m procwatt` processes, round-robin over six calls."""

    name = "cli"
    warmup_ops = 6
    digest_ops = 6
    round = 6

    def __init__(self, seed, workdir):
        rng = random.Random(sub_seed(seed, "cli"))
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        truth = {"kind": "nroot", "c": rng.uniform(5, 8), "d": rng.uniform(1, 2), "n": rng.randint(2, 5)}
        lin = {"kind": "linear", "a": rng.uniform(8, 11), "b": rng.uniform(0.03, 0.07)}
        files = {
            "truth.json": truth,
            "lin.json": lin,
            "root.json": truth,
            "problem.json": placement_doc(rng, 0),
        }
        for name, doc in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        sim_seed = str(sub_seed(seed, "trace") % 2**31)
        trace = simulate.generate_trace(
            simulate.ProtocolConfig(baseline_load_q=Q, noise_sigma=SIGMA, seed=int(sim_seed)),
            profiles.profile_from_dict(truth),
        )
        traceio.write_trace(trace, os.path.join(workdir, "trace.csv"))
        sigma = str(SIGMA)
        self.inputs = [
            ("simulate", ["simulate", "truth.json", "--q", "5", "--sigma", sigma, "--seed", sim_seed,
                          "--out", "sim.csv"], "sim.csv"),
            ("fit", ["fit", "trace.csv"], None),
            ("fit_raw", ["fit", "trace.csv", "--raw"], None),
            ("crossover", ["crossover", "lin.json", "root.json", "--plot-csv", "curves.csv"], "curves.csv"),
            ("place", ["place", "problem.json"], None),
            ("energy", ["energy", "trace.csv"], None),
        ]
        self.env = child_env()
        self.peak_rss_kb = 0

    def op(self, call, tr):
        name, argv, out_file = call
        stdout = tr.call(f"cli.{name}", self._run, argv)
        files = {}
        if out_file is not None:
            with open(os.path.join(self.workdir, out_file), "rb") as handle:
                files[out_file] = handle.read()
        return {"name": name, "stdout": stdout, "files": files}

    def _run(self, argv):
        code, stdout, stderr, rss_kb = run_child(
            [sys.executable, "-m", "procwatt", *argv], self.workdir, self.env
        )
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if code != 0:
            raise CliFailure(f"procwatt {' '.join(argv)} exited {code}: {stderr.decode()[-300:]}")
        return stdout

    def payload(self, out):
        blobs = {"stdout": out["stdout"], **out["files"]}
        return {key: hashlib.sha256(blob).hexdigest() for key, blob in sorted(blobs.items())}

    def check(self, i, out):
        try:
            _parse_report(out)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"cli {out['name']}: report does not parse: {exc}"], {}
        return [], {}


def _parse_report(out):
    """Parse a CLI call's report; raise on anything malformed."""
    if out["name"] == "simulate":
        lines = out["files"]["sim.csv"].decode().splitlines()
        if lines[0] != "timestamp_s,competition_pct,power_w" or len(lines) < 2:
            raise ValueError("bad trace header or empty trace")
        for line in lines[1:]:
            if len([float(x) for x in line.split(",")]) != 3:
                raise ValueError(f"bad trace row {line!r}")
        return
    doc = json.loads(out["stdout"])
    required = {
        "fit": ("chosen", "linear_report", "nroot_report", "margin"),
        "fit_raw": ("chosen", "linear_report", "nroot_report", "margin"),
        "crossover": ("crossovers", "derivative_threshold", "sign_intervals"),
        "place": ("assignment", "per_vnf_power", "per_slice_power", "total_power", "feasible"),
        "energy": ("energy_joules", "mean_power_w"),
    }[out["name"]]
    missing = [key for key in required if key not in doc]
    if missing:
        raise KeyError(f"missing {missing}")
    if out["name"] == "crossover":
        rows = out["files"]["curves.csv"].decode().splitlines()[1:]
        if not rows or any(len([float(x) for x in row.split(",")]) != 4 for row in rows):
            raise ValueError("bad plot CSV")


def child_env():
    """The environment for procwatt child processes: this checkout's src first."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, env, timeout=CHILD_TIMEOUT_S):
    """Run a process to completion; return (exit code, stdout, stderr, max RSS in KiB)."""
    with open(os.path.join(cwd, ".stdout"), "w+b") as out, open(os.path.join(cwd, ".stderr"), "w+b") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def timed_child(argv, cwd, env):
    """Wall seconds of one child process, plus its result from ``run_child``."""
    start = time.perf_counter()
    result = run_child(argv, cwd, env)
    return time.perf_counter() - start, result


WORKLOADS = {w.name: w for w in (Campaign, RawFit, Placement, Cli)}
