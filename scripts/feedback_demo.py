"""Solve the built-in 2-D example and simulate a feedback trajectory under
the greedy nondecreasing-control policy.

Usage: python3 scripts/feedback_demo.py [--hk 0.1] [--steps 100]
"""

import argparse

import numpy as np

from monohjb import (
    ConfigurationError,
    SolveOptions,
    build_uniform,
    builtin,
    control_grid,
    cost_consistency,
    level_index,
    simulate,
    solve,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hk", type=float, default=0.1)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--x0", type=float, nargs=2, default=[0.5, 0.5])
    ap.add_argument("--a0", type=float, default=1.0)
    args = ap.parse_args()

    spec = builtin("paper_example_2d")
    tri = build_uniform(spec.domain, args.hk)
    grid = control_grid(args.hk)
    try:
        a0 = level_index(grid, args.a0)
    except ConfigurationError as exc:
        ap.error(str(exc))
    u, _, report = solve(spec, tri, grid, SolveOptions(h=args.hk))
    print(f"solved in {report.iterations} iterations, "
          f"guaranteed error {report.guaranteed_error:.3e}")

    traj = simulate(spec, tri, grid, u, np.array(args.x0), a0,
                    args.hk, args.steps)
    print(f"discounted total over {traj.n_steps} steps: "
          f"{traj.discounted_total:.6f}")
    print(f"terminal state {traj.states[-1]}, "
          f"terminal control {grid.levels[traj.terminal_control]:.3f}")
    gap = cost_consistency(spec, tri, grid, u, traj, args.hk)
    print(f"cost-consistency gap vs value function: {gap:.3e}")


if __name__ == "__main__":
    main()
