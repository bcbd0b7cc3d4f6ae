"""Layer timings of the monohjb pipeline on the built-in 2-D example.

For each resolution k = h it times, as the median of five runs: the
set-up layers one by one (the mesh build, the hypothesis check
`check_hypotheses`, the batch point location `locate_many` of every level's
Euler images, also as microseconds per point, and the transition table,
which includes that point location), one Bellman sweep value-only and with
the argmin policy (on random values), the finite-horizon recursion with mu = 4
steps and one sweep at its result, value-only and with the policy (the
greedy policy of that recursion), Picard and Howard under the paper stop
rule and to a 1e-8 certified error (with their iteration counts and
certificates, and for Howard the passes over each level's rows of each
policy evaluation), one sweep at the Howard 1e-8 value, value-only and with
the policy, the nodal CSV of the mu = 4 value (also its bytes and
nanoseconds per line), and the rollout layers: one-point `locate` over a
fixed set of points (also as microseconds per call), one-point `level_data`
(the problem callbacks and their check, as a rollout step calls them; also
as microseconds per call), one-point `lookahead` (a whole rollout step but
the argmin) under the Picard paper-rule value over the same points with the
committed level cycled over 0..m (also as microseconds per call) and
100-step `simulate` under that value, as the median over a fixed set of
starts, their start levels cycled over 0..m, of each start's median, with
the quartiles over the starts (also as microseconds per step).  Every sweep
row, and the mu = 4 row for each of its sweeps, reports the share of rows
whose minimum the bounds settle (`bellman._bound`, on the row's own path).
Prints one line per layer and writes all of it, with nproc and the numpy
version, as JSON.

Usage: python3 scripts/bench.py [--out bench.json]

At k = h = 0.025 the Picard 1e-8 row is skipped (about 700 sweeps, over
10 s a run).  At 0.0125 every row is skipped but the set-up rows, the two
sweeps on random values, the mu = 4 rows and the nodal CSV, so the default
run stays within a few minutes.
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from monohjb import (
    SolveOptions,
    build_table,
    build_uniform,
    builtin,
    check_hypotheses,
    control_grid,
    locate,
    lookahead,
    simulate,
    solve,
    solve_finite_horizon,
)
from monohjb.bellman import _bound, sweep
from monohjb.fespace import nodal_csv
from monohjb.mesh import locate_many
from monohjb.problem import level_data

SIZES = (0.1, 0.05, 0.025, 0.0125)
TIGHT = 1e-8
MU = 4
REPEATS = 5
LOCATE_POINTS = 2000
LEVEL_DATA_CALLS = 2000
ROLLOUT_STARTS = 41   # every start level once at k = h = 0.025
ROLLOUT_STEPS = 100
# the rows run at the finest size; the others take minutes there
FINEST_ROWS = ("mesh", "check_hypotheses", "locate_many", "table", "sweep", "sweep_policy",
               "finite_mu4", "sweep_mu4", "sweep_policy_mu4", "nodal_csv")
# the solver row skipped at the second finest size
TIGHT_PICARD = "picard_1e-8"


def timed(fn):
    """Median wall time of REPEATS calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def settled_share(values, table, policy=False):
    """Share of the rows whose minimum the bounds of `sweep` settle."""
    return 1.0 - len(_bound(values, table, policy)[1]) / values.size


def bench_size(spec, k):
    rows = {}

    def skip(name):
        # at 0.025: Picard about 700 sweeps (over 10 s)
        if (name == TIGHT_PICARD and k == SIZES[-2]) or \
                (k == SIZES[-1] and name not in FINEST_ROWS):
            rows[name] = {"seconds": None}
            print(f"k=h={k:<6g} {name:<18} skipped")
            return True
        return False

    def record(name, seconds):
        rows[name] = {"seconds": seconds}
        print(f"k=h={k:<6g} {name:<18} {seconds * 1e3:10.2f} ms")

    def layer(name, fn):
        if skip(name):
            return None
        seconds, out = timed(fn)
        record(name, seconds)
        return out

    def share(name, values, policy=False):
        if rows[name]["seconds"] is not None:
            rows[name]["settled_share"] = settled_share(values, table, policy)
            print(f"k=h={k:<6g} {'':<18} {rows[name]['settled_share']:10.3f} rows settled")

    tri = layer("mesh", lambda: build_uniform(spec.domain, k))
    grid = control_grid(k)
    layer("check_hypotheses", lambda: check_hypotheses(tri, spec, k, grid.levels))
    # the Euler images that build_table locates, one batch per level
    images = [tri.vertices + k * level_data(spec, tri.vertices, float(a), ai)[0]
              for ai, a in enumerate(grid.levels)]

    def locate_levels():
        # each level's stencils are dropped before the next, as build_table
        # drops them; keeping all of them would time the heap's growth
        for points in images:
            located = locate_many(tri, points)
        return located

    if layer("locate_many", locate_levels) is not None:
        n_points = tri.n_vertices * grid.n_levels
        rows["locate_many"].update(
            points=n_points, us_per_point=rows["locate_many"]["seconds"] / n_points * 1e6)
        print(f"k=h={k:<6g} {'':<18} {rows['locate_many']['us_per_point']:10.4f} us per point")
    table = layer("table", lambda: build_table(spec, tri, grid, k))
    values = np.random.default_rng(0).uniform(-1, 1, size=(grid.n_levels, tri.n_vertices))
    layer("sweep", lambda: sweep(values, table))
    share("sweep", values)
    layer("sweep_policy", lambda: sweep(values, table, policy=True))
    share("sweep_policy", values, policy=True)
    finite = layer("finite_mu4", lambda: solve_finite_horizon(spec, tri, grid, k, MU, table=table))
    w, shares = np.zeros_like(values), []
    for _ in range(MU):
        shares.append(settled_share(w, table))
        w = sweep(w, table)
    rows["finite_mu4"]["settled_share"] = shares
    mu_values = np.ascontiguousarray(finite.values.T)
    layer("sweep_mu4", lambda: sweep(mu_values, table))
    share("sweep_mu4", mu_values)
    layer("sweep_policy_mu4", lambda: sweep(mu_values, table, policy=True))
    share("sweep_policy_mu4", mu_values, policy=True)
    solved = {}
    tight = {"stop_rule": "target_bound", "target": TIGHT}
    for name, opts in (
        ("picard_paper", SolveOptions(h=k)),
        ("picard_1e-8", SolveOptions(h=k, **tight)),
        ("howard_paper", SolveOptions(h=k, method="howard")),
        ("howard_1e-8", SolveOptions(h=k, method="howard", **tight)),
    ):
        out = layer(name, lambda: solve(spec, tri, grid, opts, table=table))
        if out is not None:
            u, _, report = out
            rows[name].update(iterations=report.iterations,
                              guaranteed_error=report.guaranteed_error)
            if opts.method == "howard":
                rows[name]["evaluation_iterations"] = report.evaluation_iterations
            solved[name] = u
    tight_values = solved.get("howard_1e-8")
    if tight_values is not None:
        tight_values = np.ascontiguousarray(tight_values.values.T)
    layer("sweep_1e-8", lambda: sweep(tight_values, table))
    share("sweep_1e-8", tight_values)
    layer("sweep_policy_1e-8", lambda: sweep(tight_values, table, policy=True))
    share("sweep_policy_1e-8", tight_values, policy=True)
    # the mu = 4 value exists at every size, the Picard ones do not
    n_bytes = len(layer("nodal_csv", lambda: nodal_csv(finite, tri, grid)))  # ASCII
    n_lines = tri.n_vertices * grid.n_levels
    rows["nodal_csv"].update(bytes=n_bytes, lines=n_lines,
                             ns_per_line=rows["nodal_csv"]["seconds"] / n_lines * 1e9)
    print(f"k=h={k:<6g} {'':<18} {rows['nodal_csv']['ns_per_line']:10.1f} ns per line")
    points = np.random.default_rng(1).uniform(tri.lower, tri.upper, size=(LOCATE_POINTS, tri.dim))
    if layer("locate", lambda: [locate(tri, p) for p in points]) is not None:
        rows["locate"].update(points=LOCATE_POINTS,
                              us_per_call=rows["locate"]["seconds"] / LOCATE_POINTS * 1e6)
        print(f"k=h={k:<6g} {'':<18} {rows['locate']['us_per_call']:10.2f} us per point")
    one = points[:1]
    if layer("level_data", lambda: [level_data(spec, one, 0.5, point="bench")
                                    for _ in range(LEVEL_DATA_CALLS)]) is not None:
        rows["level_data"].update(
            calls=LEVEL_DATA_CALLS,
            us_per_call=rows["level_data"]["seconds"] / LEVEL_DATA_CALLS * 1e6)
        print(f"k=h={k:<6g} {'':<18} {rows['level_data']['us_per_call']:10.2f} us per call")
    u, levels = solved.get("picard_paper"), grid.levels.tolist()
    cycled = [(points[j:j + 1], j % grid.n_levels) for j in range(LOCATE_POINTS)]
    if layer("lookahead", lambda: [lookahead(u.values, spec, tri, k, X, ai, levels[ai], "bench")
                                   for X, ai in cycled]) is not None:
        rows["lookahead"].update(points=LOCATE_POINTS,
                                 us_per_call=rows["lookahead"]["seconds"] / LOCATE_POINTS * 1e6)
        print(f"k=h={k:<6g} {'':<18} {rows['lookahead']['us_per_call']:10.2f} us per call")
    if not skip("simulate"):
        # one start's time swings up to 1.8x between identical runs; the
        # median over a fixed set of starts holds still
        starts = np.random.default_rng(2).uniform(tri.lower, tri.upper,
                                                  size=(ROLLOUT_STARTS, tri.dim))
        per_start = [timed(lambda: simulate(spec, tri, grid, u, x0, j % grid.n_levels, k,
                                            ROLLOUT_STEPS))[0]
                     for j, x0 in enumerate(starts)]
        record("simulate", statistics.median(per_start))
        rows["simulate"].update(steps=ROLLOUT_STEPS, starts=ROLLOUT_STARTS,
                                a0_index="j mod (m + 1) for start j",
                                quartiles=statistics.quantiles(per_start, n=4)[::2],
                                us_per_step=rows["simulate"]["seconds"] / ROLLOUT_STEPS * 1e6)
        print(f"k=h={k:<6g} {'':<18} {rows['simulate']['us_per_step']:10.2f} us per step")
        q1, q3 = rows["simulate"]["quartiles"]
        print(f"k=h={k:<6g} {'':<18} {q1 * 1e3:10.2f} - {q3 * 1e3:.2f} ms quartiles over starts")
    return {"nodes": tri.n_vertices, "levels": grid.n_levels, "layers": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="bench.json", help="JSON output path")
    args = parser.parse_args()
    spec = builtin("paper_example_2d")
    t0 = time.perf_counter()
    sizes = {str(k): bench_size(spec, k) for k in SIZES}
    record = {
        "problem": "paper_example_2d",
        "statistic": f"median of {REPEATS} runs (simulate: median over {ROLLOUT_STARTS} "
                     f"starts of each start's median, and the quartiles over the "
                     f"starts); null seconds = skipped",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "wall_s": time.perf_counter() - t0,
        "sizes": sizes,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out} in {record['wall_s']:.1f} s")


if __name__ == "__main__":
    main()
