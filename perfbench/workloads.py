"""Workload definitions, one timed iteration, and the untimed output checks.

Every workload solves the builtin `paper_example_2d` problem through the
public functions of each library module and then drives the greedy feedback
controller from the value it produced.  Knobs that do not define a workload
keep their library defaults; `workers` and `eval_tolerance` are never passed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from monohjb.bellman import apply, build_table, greedy_policy
from monohjb.errors import (
    ConfigurationError,
    DimensionMismatchError,
    MeshConstructionError,
    NonConvergenceError,
    OutOfDomainError,
)
from monohjb.feedback import cost_consistency, simulate
from monohjb.fespace import control_grid, nodal_csv, sup_norm_diff
from monohjb.mesh import build_uniform, check_hypotheses
from monohjb.problem import builtin
from monohjb.solver import SolveOptions, solve, solve_finite_horizon

PROBLEM = "paper_example_2d"
STEPS = 100          # closed-loop steps per trajectory
CHUNK = 25           # trajectories per timed rollout phase
PASSES = 3           # timed passes over an iteration's trajectory starts
WARMUP_K = 0.1       # coarse mesh for the untimed warm-up iteration
# The phases of one iteration, and the calibration kernel (speed.py) that
# scales each: the solve is Bellman sweeps, the rest is callback-bound.
KERNEL = {"mesh": "python", "table": "python", "solve": "numpy", "output": "python",
          "rollout": "python"}

# An iteration that raises one of these is a failed operation; anything else
# is a defect of the benchmark and stops the run.
LIBRARY_ERRORS = (
    ConfigurationError,
    DimensionMismatchError,
    MeshConstructionError,
    NonConvergenceError,
    OutOfDomainError,
)


@dataclass(frozen=True)
class Workload:
    name: str
    k: float                       # mesh size; the time step h equals k
    rollouts: int                  # closed-loop trajectory starts per iteration
    method: Optional[str] = None   # None keeps the library default (picard)
    target: Optional[float] = None  # set: stop_rule target_bound at this bound
    mu: Optional[int] = None       # set: finite-horizon recursion of mu steps
    # The value is solved in set-up and the rollouts are the timed operation;
    # otherwise the rollouts lie outside total_s.
    online: bool = False
    why: str = ""

    def options(self) -> SolveOptions:
        kw = {}
        if self.method is not None:
            kw["method"] = self.method
        if self.target is not None:
            kw.update(stop_rule="target_bound", target=self.target)
        return SolveOptions(h=self.k, **kw)


WORKLOADS = {
    w.name: w for w in (
        Workload("certified_picard", k=0.05, rollouts=50, target=1e-8,
                 why="default Picard sweeps to a 1e-8 certified error at k=h=0.05;"
                     " the sweep kernel dominates"),
        Workload("certified_howard", k=0.05, rollouts=50, method="howard", target=1e-8,
                 why="same problem and certificate with method howard; frozen-policy"
                     " apply_policy gathers beside greedy sweeps"),
        Workload("fine_horizon", k=0.025, rollouts=50, mu=4,
                 why="k=h=0.025 (8x the table) with a mu=4 recursion; set-up callbacks,"
                     " hypothesis check and CSV output dominate, the solver does not"),
        Workload("feedback_rollout", k=0.05, rollouts=200, online=True,
                 why="paper-rule value solved in set-up, then 3 passes over 200 closed-loop"
                     " trajectories of 100 steps; per-step locate and callbacks dominate"),
    )
}


def starts(k: float, n: int, rng: np.random.Generator):
    """Random initial states in the mesh box [lower + k, upper - k] of the
    problem domain, and initial control levels in random order.

    A trajectory's cost grows with the number of levels above its start, so
    the levels are cycled rather than drawn: every seed then starts the same
    number of trajectories at each level, and the latency quantiles do not
    move with the seed's level mix.
    """
    lower, upper = builtin(PROBLEM).domain
    x0 = rng.uniform(lower + k, upper - k, size=(n, lower.shape[0]))
    a0 = rng.permutation(np.resize(np.arange(int(round(1.0 / k)) + 1), n))
    return x0, a0


@dataclass
class Iteration:
    """Outputs of one timed iteration and its phases."""

    spec: object
    tri: object
    grid: object
    table: object
    hyp: object
    u: object
    report: object
    csv_path: Path
    trajectories: list
    traj_seconds: list     # every pass's trajectory times, pass after pass
    traj_phase: list       # index into phases of each trajectory's phase
    repeats_match: list    # per start: later passes gave the first pass's states
    phases: list           # (name, start, end) on the timing clock
    root: Optional[int] = None
    rollout_root: Optional[int] = None
    check_root: Optional[int] = None
    failed_trajectories: int = 0
    # per phase: reference speed / host speed over it (speed.py)
    scale: Optional[list] = None
    notes: dict = field(default_factory=dict)

    def times(self, wl: Workload, scaled: bool = True) -> dict:
        """setup_s, solve_s and total_s, scaled to reference speed or raw."""
        t = dict.fromkeys(KERNEL, 0.0)
        for j, (name, start, end) in enumerate(self.phases):
            t[name] += (end - start) * (self.scale[j] if scaled else 1.0)
        setup = t["mesh"] + t["table"]
        total = setup + t["solve"] + t["output"]
        if wl.online:
            setup += t["solve"]
            total += t["rollout"]
        return {"setup_s": setup, "solve_s": t["solve"], "total_s": total}

    def traj_times(self) -> list:
        """Per trajectory start, the median over PASSES of its wall times
        scaled to reference speed: a slow spell shorter than a pass, which
        the calibration cannot follow, reaches one pass of a start only."""
        scaled = [t * self.scale[p] for t, p in zip(self.traj_seconds, self.traj_phase)]
        return np.median(np.reshape(scaled, (PASSES, -1)), axis=0).tolist()

    def release(self):
        """Keep the counts the metrics read; drop the arrays, so peak memory
        does not grow with the number of iterations a run makes."""
        self.notes.update(
            n_vertices=self.tri.n_vertices,
            n_simplices=int(self.tri.simplices.shape[0]),
            n_levels=self.grid.n_levels,
            dim=self.tri.dim,
            table_bytes=int(self.table.indices.nbytes + self.table.weights.nbytes
                            + self.table.stage_cost.nbytes),
            largest_array_bytes=int(max(self.table.indices.nbytes,
                                        self.table.weights.nbytes)),
            steps=sum(t.n_steps for t in self.trajectories),
            switches=sum(int(np.count_nonzero(np.diff(
                np.append(t.control_indices, t.terminal_control)))) for t in self.trajectories),
        )
        self.spec = self.tri = self.grid = self.table = self.hyp = self.u = None
        self.report = None
        self.trajectories = []


def run_iteration(wl: Workload, k: float, x0, a0, tracer, out_dir: Path,
                  calibration=None, sample: bool = False) -> Iteration:
    """One timed pass: spec -> set-up -> value and policy -> value.csv -> rollouts.

    The pass is split into the phases of KERNEL, and the rollouts into
    PASSES passes over the starts in chunks of CHUNK trajectories, timed on
    `calibration.clock()` (or perf_counter without one).  With `sample`, the
    calibration kernels are sampled after every phase and from a timer
    inside the phases.  On a workload that is not online the rollouts run
    under a root span of their own, after the iteration's.
    """
    tr = tracer
    clock = calibration.clock if calibration is not None else time.perf_counter
    trajectories, traj_seconds, traj_phase, phases = [], [], [], []
    repeats_match = [True] * len(x0)

    @contextmanager
    def phase(name):
        start = clock()
        yield
        phases.append((name, start, clock()))
        if sample:
            calibration.sample()

    def rollouts():
        for rep in range(PASSES):
            for c in range(0, len(x0), CHUNK):
                with phase("rollout"):
                    for j in range(c, min(c + CHUNK, len(x0))):
                        ts = clock()
                        traj = tr.call("feedback.simulate", simulate, spec, tri, grid, u,
                                       x0[j], int(a0[j]), k, STEPS)
                        traj_seconds.append(clock() - ts)
                        traj_phase.append(len(phases))
                        if rep == 0:
                            trajectories.append(traj)
                        elif not np.array_equal(traj.states, trajectories[j].states):
                            repeats_match[j] = False

    rollout_root = None
    with calibration.sampling() if sample else nullcontext():
        with tr.root("iteration") as root:
            with phase("mesh"):
                spec = tr.instrument(tr.call("problem.builtin", builtin, PROBLEM))
                tri = tr.call("mesh.build_uniform", build_uniform, spec.domain, k)
                grid = tr.call("fespace.control_grid", control_grid, k)
                hyp = tr.call("mesh.check_hypotheses", check_hypotheses, tri, spec, k,
                              grid.levels)
            with phase("table"):
                table = tr.call("bellman.build_table", build_table, spec, tri, grid, k)
            with phase("solve"):
                if wl.mu is None:
                    u, _, report = tr.call("solver.solve", solve, spec, tri, grid,
                                           wl.options(), table=table)
                else:
                    u = tr.call("solver.solve_finite_horizon", solve_finite_horizon,
                                spec, tri, grid, k, wl.mu, table=table)
                    report = None
                tr.call("bellman.greedy_policy", greedy_policy, u, spec, tri, grid, k,
                        table=table)
            with phase("output"):
                csv_path = out_dir / "value.csv"
                csv_path.write_text(tr.call("fespace.nodal_csv", nodal_csv, u, tri, grid))
            if wl.online:
                rollouts()
        if not wl.online:
            with tr.root("rollouts") as rollout_root:
                rollouts()
    return Iteration(
        spec=spec, tri=tri, grid=grid, table=table, hyp=hyp, u=u, report=report,
        csv_path=csv_path, trajectories=trajectories, traj_seconds=traj_seconds,
        traj_phase=traj_phase, repeats_match=repeats_match, phases=phases, root=root,
        rollout_root=rollout_root,
    )


def read_csv_values(path: Path) -> np.ndarray:
    """The value column of a nodal CSV, in file order, read line by line."""
    with open(path) as f:
        next(f)
        return np.fromiter((float(line[line.rfind(",") + 1:]) for line in f), float)


def top_slice_error(it: Iteration) -> float:
    exact = np.array([it.spec.analytic_top_slice(x) for x in it.tri.vertices])
    return float(np.abs(it.u.values[:, it.grid.m] - exact).max())


def check(wl: Workload, it: Iteration, ref: dict, tracer, ref_values=None) -> list:
    """Untimed correctness checks; returns the failed iteration checks.

    Trajectory failures are counted into `it.failed_trajectories`.
    `ref_values`, if given, are the recorded values, all of which must match
    within 1e-12.  The
    certificate re-check is one public `apply` sweep, traced as
    `bellman.apply` under a `check` root so it stays out of the iteration.
    """
    tr = tracer
    failures = []
    k = it.tri.k
    lam_h = it.spec.discount * k
    with tr.root("check") as check_root:
        u_next, _ = tr.call("bellman.apply", apply, it.u, it.spec, it.tri, it.grid, k,
                            table=it.table)
        gaps = [tr.call("feedback.cost_consistency", cost_consistency, it.spec, it.tri,
                        it.grid, it.u, traj, k) for traj in it.trajectories]
    it.check_root = check_root
    residual = sup_norm_diff(u_next, it.u)
    certificate = residual * (1.0 - lam_h) / lam_h
    it.notes.update(recomputed_certificate=certificate, max_gap=max(gaps, default=0.0))
    if it.report is not None:
        it.notes.update(guaranteed_error=it.report.guaranteed_error,
                        iterations=it.report.iterations)
    else:
        # solve_finite_horizon reports no bound; ||A u - u|| / (lambda h)
        # bounds the distance of u to the discrete fixed point.
        it.notes.update(guaranteed_error=residual / lam_h, iterations=wl.mu)

    if not (it.hyp.hip1_ok and it.hyp.hip2_ok):
        failures.append("mesh hypotheses hip1/hip2 do not hold")
    parsed = read_csv_values(it.csv_path)
    if not np.array_equal(parsed, it.u.values.ravel()):
        failures.append("value.csv does not parse back to the solved values")
    if wl.target is not None:
        if not (it.report.converged and it.report.guaranteed_error <= wl.target):
            failures.append("solver did not reach the target certificate")
        if not certificate <= wl.target:
            failures.append(f"recomputed certificate {certificate:.3e} > target")
    elif it.report is not None and not certificate <= it.report.guaranteed_error:
        failures.append("recomputed certificate exceeds the reported guaranteed error")
    if "top_slice_error" in ref:
        tol = wl.target if wl.target is not None else 1e-12
        err = top_slice_error(it)
        if abs(err - ref["top_slice_error"]) > tol:
            failures.append(f"top-slice error {err!r} != reference {ref['top_slice_error']!r}")
    if ref_values is not None:
        flat = it.u.values.ravel()
        if flat.shape != ref_values.shape or np.abs(flat - ref_values).max() > 1e-12:
            failures.append("values differ from the reference values by more than 1e-12")

    eps = it.tri.snap_tolerance
    gap_bound = ref.get("gap_bound")
    for traj, gap, same in zip(it.trajectories, gaps, it.repeats_match):
        levels = np.append(traj.control_indices, traj.terminal_control)
        inside = np.all(traj.states >= it.tri.lower - eps) and \
            np.all(traj.states <= it.tri.upper + eps)
        ok = same and bool(np.all(np.diff(levels) >= 0)) and bool(inside) and \
            traj.n_steps == STEPS and (gap_bound is None or gap <= gap_bound)
        it.failed_trajectories += not ok
    it.release()
    return failures
