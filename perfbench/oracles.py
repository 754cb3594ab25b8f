"""References that check procwatt's outputs without calling procwatt.

Each check returns a list of problems; an empty list means the output is
correct.  Profiles arrive in their JSON document form
(``{"kind": "linear", "a": .., "b": ..}``), as the reports serialise them.
"""

from __future__ import annotations

import numpy as np

N_GRID = range(2, 9)
FIT_RTOL = 1e-7
ENERGY_RTOL = 1e-9
TOTAL_RTOL = 1e-9


def _close(got, want, rtol, scale=1.0):
    return abs(got - want) <= rtol * max(abs(want), scale)


def lstsq_line(x, y):
    """(intercept, slope, sse) of y ~ intercept + slope*x by numpy.linalg.lstsq."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def fit_reference(p, w):
    """Linear fit and the n-root fit for every n in the grid, on the same arrays."""
    return {"linear": lstsq_line(p, w), "nroot": {n: lstsq_line(p ** (1.0 / n), w) for n in N_GRID}}


def check_fits(selection, reference):
    """Compare a serialised ModelSelection with ``fit_reference`` output."""
    problems = []
    lin = selection["linear_report"]["profile"]
    a, b, _ = reference["linear"]
    scale = abs(a) + abs(b)
    if not (_close(lin["a"], a, FIT_RTOL, scale) and _close(lin["b"], b, FIT_RTOL, scale)):
        problems.append(f"linear fit ({lin['a']}, {lin['b']}) != lstsq ({a}, {b})")

    root = selection["nroot_report"]["profile"]
    sses = {n: fit[2] for n, fit in reference["nroot"].items()}
    best = min(sses.values())
    # near-ties in SSE may resolve to either n; anything else must match
    tied = [n for n, sse in sses.items() if sse <= best * (1 + 1e-9) + 1e-12]
    if root["n"] not in tied:
        problems.append(f"n-root fit chose n={root['n']}, lstsq minimum is at n in {tied}")
    else:
        c, d, _ = reference["nroot"][root["n"]]
        scale = abs(c) + abs(d)
        if not (_close(root["c"], c, FIT_RTOL, scale) and _close(root["d"], d, FIT_RTOL, scale)):
            problems.append(f"n-root fit ({root['c']}, {root['d']}) != lstsq ({c}, {d})")
    return problems


def check_energy(joules, t, power):
    want = float(np.trapezoid(power, t))
    if not _close(joules, want, ENERGY_RTOL):
        return [f"energy {joules} J != numpy.trapezoid {want} J"]
    return []


def watts(profile, p):
    if profile["kind"] == "linear":
        return profile["a"] + profile["b"] * p
    return profile["c"] + profile["d"] * p ** (1.0 / profile["n"])


def check_crossovers(lin, root, crossovers, p_max, delta=1e-4):
    """D(p) = W_lin(p) - W_root(p) must change sign at each reported crossover."""
    problems = []
    for x in crossovers:
        lo, hi = max(x - delta, 0.0), min(x + delta, p_max)
        d_lo, d_hi = watts(lin, lo) - watts(root, lo), watts(lin, hi) - watts(root, hi)
        if d_lo * d_hi > 0:
            problems.append(f"D(p) keeps its sign across reported crossover {x}")
    return problems


def check_best_machine(profiles, competition, chosen):
    """Least power at the given competition, ties to the smallest id."""
    want = min(sorted(profiles), key=lambda m: watts(profiles[m], competition[m]))
    return [] if chosen == want else [f"best_machine chose {chosen!r}, expected {want!r}"]


class PlacementOracle:
    """Every assignment of an instance, evaluated at once with numpy.

    Assignments are enumerated in lexicographic order of (vnf id, machine id)
    like the exhaustive solver.  Loads, faced competition and totals are
    summed in the same order as the placement model defines them.
    """

    def __init__(self, doc):
        machines = sorted(doc["machines"], key=lambda m: m["id"])
        vnfs = sorted(doc["vnfs"], key=lambda v: v["id"])
        self.machine_ids = [m["id"] for m in machines]
        self.vnf_ids = [v["id"] for v in vnfs]
        n_m, n_v = len(machines), len(vnfs)
        # grid[v] = machine index of vnf v, one column per candidate
        grid = np.indices((n_m,) * n_v, dtype=np.int8).reshape(n_v, -1)
        self.candidates = grid.shape[1]
        base = np.array([m.get("base_competition", 0.0) for m in machines], dtype=float)
        shares = [float(v["cpu_share"]) for v in vnfs]

        load = np.tile(base[:, None], (1, self.candidates))
        for v in range(n_v):
            load += np.where(grid[v][None, :] == np.arange(n_m)[:, None], shares[v], 0.0)
        self.feasible = np.all(load <= 100.0, axis=0)

        per_slice = {s: np.zeros(self.candidates) for s in doc["slices"]}
        for v in range(n_v):
            others = np.zeros(self.candidates)
            for u in range(n_v):
                if u != v:
                    others += np.where(grid[u] == grid[v], shares[u], 0.0)
            faced = base[grid[v]] + others
            power = np.empty(self.candidates)
            for m, machine in enumerate(machines):
                on_m = grid[v] == m
                power[on_m] = _watts_array(machine["profile"], faced[on_m])
            per_slice[vnfs[v]["slice_id"]] += power
        total = np.zeros(self.candidates)
        for s in doc["slices"]:
            total += per_slice[s]
        self.total = total
        pool = np.flatnonzero(self.feasible) if self.feasible.any() else np.arange(self.candidates)
        self.best = int(pool[np.argmin(total[pool])])

    def index_of(self, assignment):
        index = 0
        for vnf_id in self.vnf_ids:
            index = index * len(self.machine_ids) + self.machine_ids.index(assignment[vnf_id])
        return index

    def check(self, exhaustive, greedy):
        """Exhaustive must match the enumeration and be no worse than greedy."""
        problems = []
        want = float(self.total[self.best])
        if exhaustive["feasible"] != bool(self.feasible[self.best]):
            problems.append("exhaustive feasibility differs from the enumeration")
        if not _close(exhaustive["total_power"], want, TOTAL_RTOL):
            problems.append(f"exhaustive total {exhaustive['total_power']} != enumeration {want}")
        index = self.index_of(exhaustive["assignment"])
        if not _close(float(self.total[index]), want, TOTAL_RTOL):
            problems.append("exhaustive assignment is not an enumeration minimum")
        # an infeasible greedy result may undercut a feasible optimum
        comparable = greedy["feasible"] or not exhaustive["feasible"]
        # the tolerance is added, not multiplied: totals can be negative
        # when a profile decreases with competition
        slack = TOTAL_RTOL * max(abs(greedy["total_power"]), 1.0)
        if comparable and exhaustive["total_power"] > greedy["total_power"] + slack:
            problems.append(
                f"exhaustive total {exhaustive['total_power']} > greedy {greedy['total_power']}"
            )
        return problems


def _watts_array(profile, p):
    if profile["kind"] == "linear":
        return profile["a"] + profile["b"] * p
    return profile["c"] + profile["d"] * np.power(p, 1.0 / profile["n"])


def arrays(pairs):
    """Columns of a list of equal-length tuples as float arrays."""
    table = np.asarray(pairs, dtype=float)
    return tuple(table[:, k] for k in range(table.shape[1]))
