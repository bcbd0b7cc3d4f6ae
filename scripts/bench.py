"""Layer timings of the monohjb pipeline on the built-in 2-D example.

For each resolution k = h it times, as the median of five runs: the mesh
build, the transition table, one Bellman sweep value-only and with the
argmin policy, Picard under the paper stop rule and to a 1e-8 certified
error (with their iteration counts and certificates), and the nodal CSV.
Prints one line per layer and writes all of it, with nproc and the numpy
version, as JSON.

Usage: python3 scripts/bench.py [--out bench.json]

At k = h = 0.025 Picard is skipped at 1e-8 (about 700 sweeps, over 30 s a
run), so the default run stays under 60 s.
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from monohjb import SolveOptions, build_table, build_uniform, builtin, control_grid, solve_picard
from monohjb.bellman import sweep
from monohjb.fespace import nodal_csv

SIZES = (0.1, 0.05, 0.025)
TIGHT = 1e-8
REPEATS = 5


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
        # about 700 sweeps at the finest size, over 30 s a run
        if name == "picard_1e-8" and k == SIZES[-1]:
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
    for name, opts in (
        ("picard_paper", SolveOptions(h=k)),
        ("picard_1e-8", SolveOptions(h=k, stop_rule="target_bound", target=TIGHT)),
    ):
        out = layer(name, lambda: solve_picard(spec, tri, grid, opts, table=table))
        if out is not None:
            u, _, report = out
            rows[name].update(iterations=report.iterations,
                              guaranteed_error=report.guaranteed_error)
            if solved is None:
                solved = u
    layer("nodal_csv", lambda: nodal_csv(solved, tri, grid))
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
