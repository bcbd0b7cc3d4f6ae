"""Reproduce the iteration-count table and analytic-slice errors for the
built-in 2-D example at coupled resolutions h = k.

Usage: python3 scripts/reproduce_iteration_table.py
"""

import time

import numpy as np

from monohjb import (
    SolveOptions,
    build_uniform,
    builtin,
    control_grid,
    solve,
)


def main():
    spec = builtin("paper_example_2d")
    print(f"{'h=k':>6} {'nodes':>6} {'levels':>7} {'iters':>6} "
          f"{'guaranteed':>11} {'slice_err':>10} {'wall[s]':>8}")
    for hk in (0.5, 0.2, 0.1, 0.05):
        tri = build_uniform(spec.domain, hk)
        grid = control_grid(hk)
        t0 = time.perf_counter()
        u, _, report = solve(spec, tri, grid, SolveOptions(h=hk))
        wall = time.perf_counter() - t0
        exact = spec.analytic_top_slice(tri.vertices)
        slice_err = float(np.abs(u.values[:, grid.m] - exact).max())
        print(f"{hk:>6g} {tri.n_vertices:>6d} {grid.m + 1:>7d} "
              f"{report.iterations:>6d} {report.guaranteed_error:>11.4e} "
              f"{slice_err:>10.4f} {wall:>8.3f}")


if __name__ == "__main__":
    main()
