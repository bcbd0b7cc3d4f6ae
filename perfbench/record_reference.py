"""Record the reference outputs the benchmark checks against.

Run once per deliberate change of the solver's results, from the repository
root:

    python3 perfbench/record_reference.py

It solves each workload once and writes `perfbench/reference.json`:
the analytic top-slice error of the fixed-point workloads, the name of a
`.npy` file beside it that holds all finite-horizon values, and for every
workload whose
value is a certified fixed point a bound on the `cost_consistency` gap,
1.25 times the largest gap over 4000 trajectories drawn from seeds the
benchmark's own runs do not use (1000 and up).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

GAP_SEEDS = range(1000, 1020)
GAP_MARGIN = 1.25


def main() -> int:
    error = run.import_library()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import numpy as np

    from monohjb.feedback import cost_consistency, simulate
    from spans import NullTracer
    from workloads import STEPS, WORKLOADS, run_iteration, starts, top_slice_error

    out_dir = run.OUT / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = run.environment(seed=0)
    refs = {"git_commit": env["git_commit"], "source_sha256": env["source_sha256"],
            "workloads": {}}
    for wl in WORKLOADS.values():
        x0, a0 = starts(wl.k, 1, np.random.default_rng(0))
        it = run_iteration(wl, wl.k, x0, a0, NullTracer(), out_dir)
        ref = {}
        if wl.mu is None:
            ref["top_slice_error"] = top_slice_error(it)
            ref["guaranteed_error"] = it.report.guaranteed_error
            ref["iterations"] = it.report.iterations
            gaps = []
            for seed in GAP_SEEDS:
                for x, a in zip(*starts(wl.k, 200, np.random.default_rng(seed))):
                    traj = simulate(it.spec, it.tri, it.grid, it.u, x, int(a), wl.k, STEPS)
                    gaps.append(cost_consistency(it.spec, it.tri, it.grid, it.u, traj, wl.k))
            ref["max_gap_observed"] = max(gaps)
            ref["gap_bound"] = GAP_MARGIN * max(gaps)
        else:
            ref["values_file"] = f"{wl.name}_values.npy"
            np.save(Path(__file__).parent / ref["values_file"], it.u.values.ravel())
        refs["workloads"][wl.name] = ref
        print(wl.name, ref, flush=True)
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
