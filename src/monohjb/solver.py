"""Fixed-point solvers for the discrete value function.

Picard iteration applies the contractive Bellman operator from the zero
function until the residual passes the stop rule; Howard iteration alternates
policy evaluation at a frozen policy, carried as far as the stop rule needs,
with greedy improvement.  Both return a
posteriori guaranteed error bounds from the geometric-series contraction
estimate: ||u_n - u*|| <= Delta_n * (1 - lambda h) / (lambda h).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bellman import (
    PolicyField, TransitionTable, apply, apply_policy, build_table, policy_index, sweep,
)
from .errors import ConfigurationError, NonConvergenceError
# sup_norm_diff is no longer called here but stays a module attribute:
# perfbench/spans.py traces it under this name.
from .fespace import ControlGrid, GridFunction, sup_norm_diff  # noqa: F401
from .mesh import Triangulation
from .problem import ProblemSpec


@dataclass
class SolveOptions:
    h: float
    method: str = "picard"            # "picard" | "howard"
    stop_rule: str = "paper"          # "paper" (Delta <= h^2) | "target_bound"
    target: Optional[float] = None    # guaranteed-error target for target_bound
    max_iterations: int = 10_000

    def validate(self, discount: float):
        if not 0.0 < self.h < 1.0 / discount:
            raise ConfigurationError(
                f"time step must satisfy 0 < h < 1/discount, got h={self.h}"
            )
        if self.method not in ("picard", "howard"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.stop_rule not in ("paper", "target_bound"):
            raise ConfigurationError(f"unknown stop rule {self.stop_rule!r}")
        if self.stop_rule == "target_bound" and (self.target is None or self.target <= 0):
            raise ConfigurationError("target_bound stop rule needs a positive target")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    def residual_threshold(self, discount: float) -> float:
        if self.stop_rule == "paper":
            return self.h * self.h
        # guaranteed_error = Delta * (1 - lambda h)/(lambda h) <= target
        lam_h = discount * self.h
        return self.target * lam_h / (1.0 - lam_h)


@dataclass
class SolveReport:
    iterations: int
    residual_history: list = field(default_factory=list)
    guaranteed_error: float = float("inf")
    wall_time: float = 0.0
    method: str = "picard"
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else float("inf")


def _guaranteed(delta: float, lam: float, h: float) -> float:
    return delta * (1.0 - lam * h) / (lam * h)


def solve_picard(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    opts: SolveOptions,
    table: TransitionTable | None = None,
) -> tuple[GridFunction, PolicyField, SolveReport]:
    """Iterate u_n = A(u_{n-1}) from u_0 = 0 until the stop rule fires.

    The iterates are value-only sweeps on level-major vectors; the returned
    policy is the argmin of the last sweep, from one policy sweep of the
    previous iterate (whose values equal the last iterate exactly).
    """
    opts.validate(spec.discount)
    if table is None:
        table = build_table(spec, tri, grid, opts.h)
    threshold = opts.residual_threshold(spec.discount)
    t0 = time.perf_counter()
    u = np.zeros((grid.n_levels, tri.n_vertices))
    report = SolveReport(iterations=0, method="picard")
    for n in range(1, opts.max_iterations + 1):
        prev, u = u, sweep(u, table)
        delta = float(np.abs(u - prev).max())
        report.residual_history.append(delta)
        report.iterations = n
        if delta <= threshold:
            report.converged = True
            break
    value, policy = apply(GridFunction(prev.T), spec, tri, grid, opts.h, table=table)
    report.guaranteed_error = _guaranteed(report.final_residual, spec.discount, opts.h)
    report.wall_time = time.perf_counter() - t0
    if not report.converged:
        raise NonConvergenceError(
            f"Picard iteration did not meet the stop rule within "
            f"{opts.max_iterations} iterations (last residual "
            f"{report.final_residual:.3e}, threshold {threshold:.3e})",
            value=value, policy=policy, report=report,
        )
    return value, policy, report


def solve_howard(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    opts: SolveOptions,
    table: TransitionTable | None = None,
) -> tuple[GridFunction, PolicyField, SolveReport]:
    """Policy iteration: evaluate a frozen policy, then improve greedily.

    Each policy is evaluated by frozen-policy sweeps, warm-started from the
    last greedy value, until a sweep changes the value by at most
    threshold * lambda*h, so the evaluation error is at most
    threshold * (1 - lambda h).  Stops once the residual ||A w - w|| of the
    evaluated value w meets the stop rule and returns A w with its greedy
    policy, so the returned value carries the same guaranteed-error contract
    as the Picard solver: the bound holds whether or not the policy has
    settled, as it does for Picard's returned policy.  max_iterations caps
    the outer iterations and the sweeps of each evaluation.
    """
    opts.validate(spec.discount)
    if table is None:
        table = build_table(spec, tri, grid, opts.h)
    threshold = opts.residual_threshold(spec.discount)
    eval_tolerance = threshold * spec.discount * opts.h
    t0 = time.perf_counter()

    u = np.zeros((grid.n_levels, tri.n_vertices))
    _, choice = sweep(u, table, policy=True)
    report = SolveReport(iterations=0, method="howard")
    for n in range(1, opts.max_iterations + 1):
        # policy evaluation on level-major vectors: one flat gather per sweep
        index = policy_index(PolicyField(choice.T), table)
        w = u.ravel()
        for _ in range(opts.max_iterations):
            w_next = apply_policy(w, index, table)
            change = float(np.abs(w_next - w).max())
            w = w_next
            if change <= eval_tolerance:
                break
        w = w.reshape(u.shape)
        # improvement step doubles as the residual check
        u, choice = sweep(w, table, policy=True)
        delta = float(np.abs(u - w).max())
        report.residual_history.append(delta)
        report.iterations = n
        if delta <= threshold:
            report.converged = True
            break
    u, policy = GridFunction(u.T.copy()), PolicyField(choice.T.copy())
    report.guaranteed_error = _guaranteed(report.final_residual, spec.discount, opts.h)
    report.wall_time = time.perf_counter() - t0
    if not report.converged:
        raise NonConvergenceError(
            f"Howard iteration did not converge within {opts.max_iterations} "
            f"outer iterations (last residual {report.final_residual:.3e})",
            value=u, policy=policy, report=report,
        )
    return u, policy, report


def solve(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    opts: SolveOptions,
    table: TransitionTable | None = None,
):
    fn = solve_picard if opts.method == "picard" else solve_howard
    return fn(spec, tri, grid, opts, table=table)


def solve_finite_horizon(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    h: float,
    mu: int,
    table: TransitionTable | None = None,
) -> GridFunction:
    """Backward recursion over horizon T = mu*h from the zero terminal value."""
    if mu < 0:
        raise ConfigurationError(f"step count must be nonnegative, got {mu}")
    if table is None and mu > 0:
        table = build_table(spec, tri, grid, h)
    u = np.zeros((grid.n_levels, tri.n_vertices))
    for _ in range(mu):
        u = sweep(u, table)
    return GridFunction(u.T.copy())
