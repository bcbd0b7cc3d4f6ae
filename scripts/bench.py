"""Layer timings of the monohjb pipeline on the built-in 2-D example.

For each resolution k = h it times, as the median of five runs: the
set-up layers one by one (the mesh build, the hypothesis check
`check_hypotheses`, the batch point location `locate_many` of every level's
Euler images, also as microseconds per point, and the transition table,
which includes that point location), one Bellman sweep value-only and with
the argmin policy (on random values), the finite-horizon recursion with mu = 4
steps and one sweep at its result, value-only and with the policy (the
greedy policy of that recursion), Picard and Howard under the paper stop
rule and to a 1e-8 certified error, and Picard to 1e-12 (with their
iteration counts and certificates; for Picard the milliseconds per sweep,
counting the closing policy sweep, and, from one more solve, the first
check (the first value sweep to which `Sweeper.picard` gives a change,
which keeps each row's live levels), the number of checks, the live (row,
level) pairs after the first and the second check and at the stop
(`Sweeper.live_pairs`), the rows left with more than one live level at the
stop, the milliseconds per value sweep before the first check, of the
first check, per check and per value sweep after the first check, the
checks counted apart, and the first check's minor page faults; for Howard
the passes over each block of levels of each policy evaluation and the
tracemalloc peak of one more solve, on the built table), one sweep at the
Howard 1e-8 value, value-only and with
the policy, the nodal CSV of the mu = 4 value (also its bytes and
nanoseconds per line; timed in a fresh process that holds only the mesh and
that value, where each call pays for the pages of its output, and in this
process after the rows above, as `nodal_csv_in_process`), and
the rollout layers: one-point `locate` over a
fixed set of points (also as microseconds per call), one-point `level_data`
(the problem callbacks and their check, as a rollout step calls them; also
as microseconds per call), one-point `lookahead` (a whole rollout step but
the argmin) under the Picard paper-rule value over the same points with the
committed level cycled over 0..m (also as microseconds per call) and
100-step `simulate` under that value, as the median over a fixed set of
starts, their start levels cycled over 0..m, of each start's median, with
the quartiles over the starts (also as microseconds per step).  Every sweep
row reports the share of rows whose minimum the bounds settle
(`Sweeper.open_rows`, on the row's own path), and the mu = 4 row reports it
for each of its mu - 1 sweeps: the recursion starts from A(0), its known
first step, and sweeps from there, never the zero function.
Prints one line per layer and writes all of it, with nproc and the numpy
version, as JSON.

Usage: python3 scripts/bench.py [--out bench.json]

At k = h = 0.025 the Picard 1e-8 and 1e-12 rows are skipped (about 700
sweeps to 1e-8, over 10 s a run).  At 0.0125 every row is skipped but the
set-up rows, the two sweeps on random values, the mu = 4 rows, Howard 1e-8
(about 3 s a solve) and the nodal CSV, so the default run stays within a
few minutes.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from monohjb import (
    GridFunction,
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
from monohjb.bellman import Sweeper, sweep
from monohjb.fespace import nodal_csv
from monohjb.mesh import _euler_images, locate_many
from monohjb.problem import level_data

SIZES = (0.1, 0.05, 0.025, 0.0125)
TIGHT = 1e-8
TIGHTER = 1e-12
MU = 4
REPEATS = 5
LOCATE_POINTS = 2000
LEVEL_DATA_CALLS = 2000
ROLLOUT_STARTS = 41   # every start level once at k = h = 0.025
ROLLOUT_STEPS = 100
# the rows run at the finest size; the others take minutes there
FINEST_ROWS = ("mesh", "check_hypotheses", "locate_many", "table", "sweep", "sweep_policy",
               "finite_mu4", "sweep_mu4", "sweep_policy_mu4", "howard_1e-8", "nodal_csv",
               "nodal_csv_in_process")
# the solver rows skipped at the second finest size
TIGHT_PICARD = ("picard_1e-8", "picard_1e-12")


def timed(fn):
    """Median wall time of REPEATS calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def traced_peak_mb(fn):
    """The tracemalloc peak of one fn() call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def nodal_csv_alone(k, values):
    """Median time and length of the nodal CSV of `values` on the k = h mesh."""
    tri = build_uniform(builtin("paper_example_2d").domain, k)
    seconds, text = timed(lambda: nodal_csv(GridFunction(values), tri, control_grid(k)))
    return seconds, len(text)  # ASCII


def settled_share(values, table, policy=False):
    """Share of the rows whose minimum the bounds of `sweep` settle."""
    return 1.0 - len(Sweeper(table).open_rows(values, policy)) / values.size


def decisions(fn):
    """How the value sweeps of the Picard solve fn() drop levels, as
    `Sweeper.picard` runs them (`Sweeper._sweep`, given a change at a
    check): the first check (counted from 1), the number of checks, the
    live (row, level) pairs right after the first and the second check and
    at the stop (`Sweeper.live_pairs`), the rows with more than one live
    level at the stop, the milliseconds of the value sweeps: the mean before
    the first check, the first check, the mean per check and the mean per
    sweep after the first check that is no check, and the minor page faults
    of the first check (None where there is none)."""
    # (seconds, a check, live pairs after, undecided rows after, minor faults)
    sweeps = []
    call = Sweeper._sweep

    def record(self, values, change):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = call(self, values, change)
        seconds = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        live = self.live_pairs()
        sweeps.append((seconds, change is not None, None if live is None else len(live[0]),
                       int((self.decided_levels() < 0).sum()), faults))
        return out

    with mock.patch.object(Sweeper, "_sweep", record):
        fn()
    checks = [n for n, (_, checked, *_) in enumerate(sweeps) if checked]
    first = checks[0] if checks else None
    after = [] if first is None else sweeps[first + 1:]

    def mean_ms(part):
        return statistics.mean(seconds for seconds, *_ in part) * 1e3 if part else None

    return {
        "first_check_sweep": None if first is None else first + 1,
        "checks": sum(checked for _, checked, *_ in sweeps),
        "live_pairs_at_first_check": None if first is None else sweeps[first][2],
        "live_pairs_at_second_check": sweeps[checks[1]][2] if len(checks) > 1 else None,
        "live_pairs_at_stop": sweeps[-1][2],
        "undecided_at_stop": sweeps[-1][3],
        "ms_per_sweep_before_first_check": mean_ms(sweeps if first is None else sweeps[:first]),
        "ms_first_check": None if first is None else sweeps[first][0] * 1e3,
        "ms_per_check": mean_ms([s for s in sweeps if s[1]]),
        "ms_per_sweep_after_first_check": mean_ms([s for s in after if not s[1]]),
        "first_check_minor_faults": None if first is None else sweeps[first][4],
    }


def bench_size(spec, k):
    rows = {}

    def skip(name):
        # at 0.025: Picard about 700 sweeps to 1e-8 (over 10 s)
        if (name in TIGHT_PICARD and k == SIZES[-2]) or \
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
    images = [points for points, _ in _euler_images(spec, tri, k, grid.levels)]

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
    # the recursion's sweeps, from its first step A(0)
    w, shares = sweep(np.zeros_like(values), table), []
    for _ in range(MU - 1):
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
        ("picard_1e-12", SolveOptions(h=k, stop_rule="target_bound", target=TIGHTER)),
        ("howard_paper", SolveOptions(h=k, method="howard")),
        ("howard_1e-8", SolveOptions(h=k, method="howard", **tight)),
    ):
        out = layer(name, lambda: solve(spec, tri, grid, opts, table=table))
        if out is not None:
            u, _, report = out
            rows[name].update(iterations=report.iterations,
                              guaranteed_error=report.guaranteed_error)
            if opts.method == "howard":
                rows[name].update(
                    evaluation_iterations=report.evaluation_iterations,
                    tracemalloc_peak_mb=traced_peak_mb(
                        lambda: solve(spec, tri, grid, opts, table=table)))
                print(f"k=h={k:<6g} {'':<18} {rows[name]['tracemalloc_peak_mb']:10.2f} MB "
                      f"tracemalloc peak")
            else:
                # a value sweep per iteration, then the closing policy sweep
                sweeps = report.iterations + 1
                rows[name].update(
                    ms_per_sweep=rows[name]["seconds"] / sweeps * 1e3,
                    **decisions(lambda: solve(spec, tri, grid, opts, table=table)))
                row = rows[name]
                print(f"k=h={k:<6g} {'':<18} {row['ms_per_sweep']:10.3f} ms per sweep; first "
                      f"check at sweep {row['first_check_sweep']}, {row['checks']} checks, "
                      f"{row['undecided_at_stop']} rows undecided at the stop")
                if row["first_check_sweep"] is not None:
                    print(f"k=h={k:<6g} {'':<18} {row['live_pairs_at_first_check']:10d} live "
                          f"pairs after the first check, {row['live_pairs_at_second_check']} "
                          f"after the second, {row['live_pairs_at_stop']} at the stop; "
                          f"{row['first_check_minor_faults']} minor page faults in the first check")
                    print(f"k=h={k:<6g} {'':<18} {row['ms_per_sweep_before_first_check']:10.3f} ms "
                          f"per sweep before the first check, {row['ms_first_check']:.3f} the "
                          f"first check, {row['ms_per_check']:.3f} per check, "
                          f"{row['ms_per_sweep_after_first_check']:.3f} per other sweep after")
            solved[name] = u
    tight_values = solved.get("howard_1e-8")
    if tight_values is not None:
        tight_values = np.ascontiguousarray(tight_values.values.T)
    layer("sweep_1e-8", lambda: sweep(tight_values, table))
    share("sweep_1e-8", tight_values)
    layer("sweep_policy_1e-8", lambda: sweep(tight_values, table, policy=True))
    share("sweep_policy_1e-8", tight_values, policy=True)
    # the mu = 4 value exists at every size, the Picard ones do not; timed
    # in a fresh process too, since in this one the writer's time depends on
    # what the rows above leave on the heap
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        seconds, n_bytes = pool.apply(nodal_csv_alone, (k, finite.values))
    record("nodal_csv", seconds)
    n_lines = tri.n_vertices * grid.n_levels
    rows["nodal_csv"].update(bytes=n_bytes, lines=n_lines,
                             ns_per_line=rows["nodal_csv"]["seconds"] / n_lines * 1e9)
    print(f"k=h={k:<6g} {'':<18} {rows['nodal_csv']['ns_per_line']:10.1f} ns per line")
    layer("nodal_csv_in_process", lambda: nodal_csv(finite, tri, grid))
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
