"""Layer timings of the monohjb pipeline on the built-in 2-D example.

For each resolution k = h it times, as the median of five runs: the mesh
build, the transition table, one Bellman sweep value-only and with the
argmin policy, Picard and Howard under the paper stop rule and to a 1e-8
certified error (with their iteration counts and certificates), the nodal
CSV, and the rollout layers: one-point `locate` over a fixed set of points
(also as microseconds per call), one-point `level_data` (the problem
callbacks and their check, as a rollout step calls them; also as
microseconds per call) and one 100-step `simulate` from a fixed start
under the Picard paper-rule value (also as microseconds per step).  Prints
one line per layer and writes all of it, with nproc and the numpy version,
as JSON.

Usage: python3 scripts/bench.py [--out bench.json]

At k = h = 0.025 both solvers are skipped at 1e-8 (Picard: about 700
sweeps, over 30 s a run; Howard: over 3 s a run), so the default run stays
under a minute.
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
    control_grid,
    locate,
    simulate,
    solve,
)
from monohjb.bellman import sweep
from monohjb.fespace import nodal_csv
from monohjb.problem import level_data

SIZES = (0.1, 0.05, 0.025)
TIGHT = 1e-8
REPEATS = 5
LOCATE_POINTS = 2000
LEVEL_DATA_CALLS = 2000
ROLLOUT_START = (0.5, 0.5)
ROLLOUT_STEPS = 100


def timed(fn):
    """Median wall time of REPEATS calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def bench_size(spec, k):
    rows = {}

    def layer(name, fn):
        # at the finest size: Picard about 700 sweeps (over 30 s), Howard over 3 s
        if name.endswith("_1e-8") and k == SIZES[-1]:
            rows[name] = {"seconds": None}
            print(f"k=h={k:<6g} {name:<16} skipped")
            return None
        seconds, out = timed(fn)
        rows[name] = {"seconds": seconds}
        print(f"k=h={k:<6g} {name:<16} {seconds * 1e3:10.2f} ms")
        return out

    tri = layer("mesh", lambda: build_uniform(spec.domain, k))
    grid = control_grid(k)
    table = layer("table", lambda: build_table(spec, tri, grid, k))
    values = np.random.default_rng(0).uniform(-1, 1, size=(grid.n_levels, tri.n_vertices))
    layer("sweep", lambda: sweep(values, table))
    layer("sweep_policy", lambda: sweep(values, table, policy=True))
    solved = None
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
            if solved is None:
                solved = u
    layer("nodal_csv", lambda: nodal_csv(solved, tri, grid))
    points = np.random.default_rng(1).uniform(tri.lower, tri.upper, size=(LOCATE_POINTS, tri.dim))
    layer("locate", lambda: [locate(tri, p) for p in points])
    rows["locate"].update(points=LOCATE_POINTS,
                          us_per_call=rows["locate"]["seconds"] / LOCATE_POINTS * 1e6)
    print(f"k=h={k:<6g} {'':<16} {rows['locate']['us_per_call']:10.2f} us per point")
    one = points[:1]
    layer("level_data", lambda: [level_data(spec, one, 0.5, point="bench")
                                 for _ in range(LEVEL_DATA_CALLS)])
    rows["level_data"].update(calls=LEVEL_DATA_CALLS,
                              us_per_call=rows["level_data"]["seconds"] / LEVEL_DATA_CALLS * 1e6)
    print(f"k=h={k:<6g} {'':<16} {rows['level_data']['us_per_call']:10.2f} us per call")
    x0 = np.array(ROLLOUT_START)
    layer("simulate", lambda: simulate(spec, tri, grid, solved, x0, 0, k, ROLLOUT_STEPS))
    rows["simulate"].update(steps=ROLLOUT_STEPS, start=list(ROLLOUT_START), a0_index=0,
                            us_per_step=rows["simulate"]["seconds"] / ROLLOUT_STEPS * 1e6)
    print(f"k=h={k:<6g} {'':<16} {rows['simulate']['us_per_step']:10.2f} us per step")
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
        "statistic": f"median of {REPEATS} runs; null seconds = skipped",
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
