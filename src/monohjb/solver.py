"""Fixed-point solvers for the discrete value function.

`solve` is the one entry: it validates the options, gets the transition
table (`bellman.table_for`), runs Picard iteration (the contractive Bellman
operator from the zero function) or Howard iteration (evaluation of a
frozen policy, carried as far as the stop rule needs, then greedy
improvement) as `opts.method` says, and certifies the result with the a
posteriori bound ||u_n - u*|| <= Delta_n * (1 - lambda h) / (lambda h).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# apply and sup_norm_diff are not called here but stay module attributes:
# perfbench/spans.py traces them under these names.
from .bellman import (  # noqa: F401
    PolicyField, TransitionTable, _check_step, apply, apply_policy, policy_index, sweep,
    table_for,
)
from .errors import ConfigurationError, NonConvergenceError
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
        _check_step(self.h, discount)
        if self.method not in ("picard", "howard"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.stop_rule not in ("paper", "target_bound"):
            raise ConfigurationError(f"unknown stop rule {self.stop_rule!r}")
        target = self.target
        if self.stop_rule == "target_bound" and (
                target is None or not math.isfinite(target) or target <= 0):
            raise ConfigurationError(
                f"target_bound stop rule needs a positive finite target, got {target}")
        if self.stop_rule == "paper" and self.target is not None:
            raise ConfigurationError("target is read only by the target_bound stop rule")
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


def _picard(table: TransitionTable, threshold: float, max_iterations: int):
    """Iterate u_n = A(u_{n-1}) from u_0 = 0 until the residual is at most
    threshold.

    The iterates are value-only sweeps on level-major vectors; the returned
    (values, choice) come from one policy sweep of the previous iterate,
    whose values equal the last iterate exactly.  Returns level-major
    (values, choice) and the residual history.
    """
    u = np.zeros(table.stage_cost.shape)
    history = []
    for _ in range(max_iterations):
        prev, u = u, sweep(u, table)
        history.append(float(np.abs(u - prev).max()))
        if history[-1] <= threshold:
            break
    u, choice = sweep(prev, table, policy=True)
    return u, choice, history


def _howard(table: TransitionTable, threshold: float, max_iterations: int):
    """Policy iteration: evaluate a frozen policy, then improve greedily.

    Each policy is evaluated by frozen-policy sweeps, warm-started from the
    last greedy value, until a sweep changes the value by at most
    threshold * lambda*h, so the evaluation error is at most
    threshold * (1 - lambda h).  Stops once the residual ||A w - w|| of the
    evaluated value w is at most threshold and returns A w with its greedy
    policy, so the returned value carries the same guaranteed-error contract
    as Picard's: the bound holds whether or not the policy has settled.
    max_iterations caps the outer iterations and the sweeps of each
    evaluation.  Returns level-major (values, choice) and the residual
    history.
    """
    eval_tolerance = threshold * table.discount * table.h
    u = np.zeros(table.stage_cost.shape)
    _, choice = sweep(u, table, policy=True)
    history = []
    for _ in range(max_iterations):
        # policy evaluation on level-major vectors: one flat gather per sweep
        index = policy_index(choice, table)
        w = u.ravel()
        for _ in range(max_iterations):
            w_next = apply_policy(w, index, table)
            change = float(np.abs(w_next - w).max())
            w = w_next
            if change <= eval_tolerance:
                break
        w = w.reshape(u.shape)
        # improvement step doubles as the residual check
        u, choice = sweep(w, table, policy=True)
        history.append(float(np.abs(u - w).max()))
        if history[-1] <= threshold:
            break
    return u, choice, history


def solve(
    spec: ProblemSpec,
    tri: Triangulation,
    grid: ControlGrid,
    opts: SolveOptions,
    table: TransitionTable | None = None,
) -> tuple[GridFunction, PolicyField, SolveReport]:
    """Solve for the fixed point with the iteration `opts.method` names.

    A supplied `table` is swept only if it was built for opts.h,
    spec.discount, this control grid and this mesh; otherwise the table is
    built here (see `bellman.table_for`).  Returns the value, its greedy
    policy and a report whose guaranteed_error bounds the sup-norm distance
    of the value to the fixed point.  If the stop rule is not met within
    opts.max_iterations, raises NonConvergenceError carrying all three.
    """
    opts.validate(spec.discount)
    table = table_for(spec, tri, grid, opts.h, table)
    threshold = opts.residual_threshold(spec.discount)
    t0 = time.perf_counter()
    loop = _picard if opts.method == "picard" else _howard
    u, choice, history = loop(table, threshold, opts.max_iterations)
    value, policy = GridFunction(u.T.copy()), PolicyField(choice.T.copy())
    lam_h = spec.discount * opts.h
    report = SolveReport(
        iterations=len(history), residual_history=history,
        guaranteed_error=history[-1] * (1.0 - lam_h) / lam_h,
        wall_time=time.perf_counter() - t0, method=opts.method,
        converged=history[-1] <= threshold,
    )
    if not report.converged:
        raise NonConvergenceError(
            f"{opts.method.capitalize()} iteration did not meet the stop rule within "
            f"{opts.max_iterations} iterations (last residual "
            f"{report.final_residual:.3e}, threshold {threshold:.3e})",
            value=value, policy=policy, report=report,
        )
    return value, policy, report


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
    if mu > 0:
        table = table_for(spec, tri, grid, h, table)
    u = np.zeros((grid.n_levels, tri.n_vertices))
    for _ in range(mu):
        u = sweep(u, table)
    return GridFunction(u.T.copy())
